(* Parses every committed BENCH_*.json artifact named on the command
   line with the codec's parser; exits 1 naming each one that is not
   strict JSON (an inf or nan token, a stray comma, a torn file). *)

let () =
  let bad =
    List.filter_map
      (fun path ->
        match Wsn_telemetry.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
        | Ok _ -> None
        | Error msg -> Some (Printf.sprintf "%s: %s" path msg))
      (List.tl (Array.to_list Sys.argv))
  in
  List.iter prerr_endline bad;
  if bad <> [] then exit 1

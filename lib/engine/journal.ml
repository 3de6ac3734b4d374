module Json = Wsn_telemetry.Json

type status = Ok_done | Failed | Timed_out

type entry = {
  hash : string;
  spec : string;
  status : status;
  attempts : int;
  cached : bool;
  error : string;
}

let status_to_string = function Ok_done -> "ok" | Failed -> "failed" | Timed_out -> "timeout"

let status_of_string = function
  | "ok" -> Some Ok_done
  | "failed" -> Some Failed
  | "timeout" -> Some Timed_out
  | _ -> None

let append oc e =
  let json =
    Json.Obj
      ([
         ("hash", Json.Str e.hash);
         ("spec", Json.Str e.spec);
         ("status", Json.Str (status_to_string e.status));
         ("attempts", Json.Int e.attempts);
         ("cached", Json.Bool e.cached);
       ]
      @ if e.error = "" then [] else [ ("error", Json.Str e.error) ])
  in
  Out_channel.output_string oc (Json.to_string json ^ "\n");
  Out_channel.flush oc

(* A line that is not one complete JSON object with every required
   field (a torn tail from a crash, a foreign line) is dropped. *)
let parse_line line =
  Option.bind (Result.to_option (Json.parse line)) @@ fun json ->
  let field key read = Option.bind (Json.member key json) read in
  match
    ( field "hash" Json.to_str,
      field "spec" Json.to_str,
      Option.bind (field "status" Json.to_str) status_of_string,
      field "attempts" Json.to_int )
  with
  | Some hash, Some spec, Some status, Some attempts ->
    Some
      {
        hash;
        spec;
        status;
        attempts;
        cached = Json.member "cached" json = Some (Json.Bool true);
        error = Option.value ~default:"" (field "error" Json.to_str);
      }
  | _ -> None

let load path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path (fun ic ->
        let rec go acc =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some line -> go (match parse_line line with Some e -> e :: acc | None -> acc)
        in
        go [])

let last_by_hash entries =
  let tbl = Hashtbl.create 64 in
  List.iter (fun e -> Hashtbl.replace tbl e.hash e) entries;
  tbl

(* Counters print as integers; gauges and distribution statistics at
   nine significant digits. *)
let dist (d : Registry.dist_stat) =
  Json.Obj
    [
      ("count", Json.Int d.Registry.count);
      ("sum", Json.Sig9 d.Registry.sum);
      ("min", Json.Sig9 d.Registry.min_v);
      ("max", Json.Sig9 d.Registry.max_v);
      ("p50", Json.Sig9 d.Registry.p50);
      ("p90", Json.Sig9 d.Registry.p90);
      ("p99", Json.Sig9 d.Registry.p99);
    ]

let to_json (s : Registry.snapshot) =
  let section value entries = Json.Obj (List.map (fun (name, v) -> (name, value v)) entries) in
  Json.Obj
    [
      ("counters", section (fun v -> Json.Int v) s.Registry.counters);
      ("gauges", section (fun v -> Json.Sig9 v) s.Registry.gauges);
      ("histograms", section dist s.Registry.histograms);
      ("spans", section dist s.Registry.spans);
    ]

(* --- summary table -------------------------------------------------- *)

let si_time secs =
  if Float.is_nan secs then "-"
  else if secs >= 1.0 then Printf.sprintf "%.3f s" secs
  else if secs >= 1e-3 then Printf.sprintf "%.3f ms" (secs *. 1e3)
  else if secs >= 1e-6 then Printf.sprintf "%.1f us" (secs *. 1e6)
  else Printf.sprintf "%.0f ns" (secs *. 1e9)

let pp_summary fmt (s : Registry.snapshot) =
  Format.fprintf fmt "@[<v># telemetry@,";
  if s.Registry.counters <> [] then begin
    Format.fprintf fmt "## counters@,";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "%-32s %12d@," name v)
      s.Registry.counters
  end;
  if s.Registry.gauges <> [] then begin
    Format.fprintf fmt "## gauges@,";
    List.iter
      (fun (name, v) -> Format.fprintf fmt "%-32s %12g@," name v)
      s.Registry.gauges
  end;
  if s.Registry.spans <> [] then begin
    Format.fprintf fmt "## spans (wall clock)@,";
    Format.fprintf fmt "%-32s %8s %10s %10s %10s %10s@," "span" "count" "total" "p50" "p90"
      "p99";
    List.iter
      (fun (name, (d : Registry.dist_stat)) ->
        Format.fprintf fmt "%-32s %8d %10s %10s %10s %10s@," name d.Registry.count
          (si_time d.Registry.sum) (si_time d.Registry.p50) (si_time d.Registry.p90)
          (si_time d.Registry.p99))
      s.Registry.spans
  end;
  if s.Registry.histograms <> [] then begin
    Format.fprintf fmt "## histograms@,";
    Format.fprintf fmt "%-32s %8s %10s %10s %10s %10s@," "histogram" "count" "mean" "p50" "p90"
      "p99";
    List.iter
      (fun (name, (d : Registry.dist_stat)) ->
        let mean =
          if d.Registry.count = 0 then nan
          else d.Registry.sum /. float_of_int d.Registry.count
        in
        Format.fprintf fmt "%-32s %8d %10.3g %10.3g %10.3g %10.3g@," name d.Registry.count mean
          d.Registry.p50 d.Registry.p90 d.Registry.p99)
      s.Registry.histograms
  end;
  Format.fprintf fmt "@]"

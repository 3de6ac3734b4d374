module Builders = Wsn_net.Builders
module Model = Wsn_conflict.Model
module Path_bandwidth = Wsn_availbw.Path_bandwidth
module Column_gen = Wsn_availbw.Column_gen

type row = {
  hops : int;
  optimum_mbps : float;
  enum_columns : int option;
  enum_seconds : float;
  cg_columns : int;
  cg_seconds : float;
}

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Enumeration guard, above the library default of 200000 sets. *)
let max_sets = 500_000

let run ?(lengths = [ 8; 12; 16; 20 ]) () =
  List.map
    (fun n ->
      let topo = Builders.chain ~spacing_m:55.0 n in
      let model = Model.physical topo in
      let path = Builders.chain_hop_links topo in
      let enum, enum_seconds =
        time (fun () ->
            try
              let r = Path_bandwidth.path_capacity ~max_sets model ~path in
              Some r
            with Failure _ -> None)
      in
      let cg, cg_seconds =
        time (fun () -> Option.get (Column_gen.available model ~background:[] ~path))
      in
      (match enum with
       | Some e ->
         if Float.abs (e.Path_bandwidth.bandwidth_mbps -. cg.Column_gen.bandwidth_mbps) > 1e-4
         then failwith "Scalability: enumeration and column generation disagree"
       | None -> ());
      {
        hops = List.length path;
        optimum_mbps = cg.Column_gen.bandwidth_mbps;
        enum_columns = Option.map (fun e -> e.Path_bandwidth.n_columns) enum;
        enum_seconds;
        cg_columns = cg.Column_gen.columns_generated;
        cg_seconds;
      })
    lengths

let print () =
  Printf.printf "# E14: full enumeration vs column generation (chain path capacity)\n";
  Printf.printf "%6s %10s %12s %10s %10s %10s\n" "hops" "optimum" "enum-cols" "enum-s" "cg-cols"
    "cg-s";
  List.iter
    (fun r ->
      let enum_cols = match r.enum_columns with Some c -> string_of_int c | None -> "guard" in
      Printf.printf "%6d %10.3f %12s %10.2f %10d %10.2f\n" r.hops r.optimum_mbps enum_cols
        r.enum_seconds r.cg_columns r.cg_seconds)
    (run ())

(* On-demand video monitoring (the paper's motivating sensor-network
   application): cameras scattered over a field stream to a collection
   sink over multihop wireless.  Admission control asks, camera by
   camera, whether the network still has bandwidth for another stream —
   and shows what each distributed estimator would have predicted.

   Run with: dune exec examples/video_surveillance.exe *)

module Point = Wsn_net.Point
module Topology = Wsn_net.Topology
module Model = Wsn_conflict.Model
module Metrics = Wsn_routing.Metrics
module Router = Wsn_routing.Router
module Admission = Wsn_routing.Admission
module Idleness = Wsn_sched.Idleness
module Flow = Wsn_availbw.Flow
module Path_bandwidth = Wsn_availbw.Path_bandwidth
module Estimators = Wsn_availbw.Estimators
module Clique = Wsn_conflict.Clique

let stream_rate_mbps = 1.5 (* one compressed video stream *)

let () =
  (* A 4x3 field of sensor nodes, 65 m pitch; the sink is node 0 at a
     corner.  65 m spacing means neighbours talk at 36 Mbps. *)
  let positions =
    Array.init 12 (fun i ->
        let row = i / 4 and col = i mod 4 in
        Point.make (65.0 *. float_of_int col) (65.0 *. float_of_int row))
  in
  let topo = Topology.create positions in
  let model = Model.physical topo in
  let sink = 0 in
  let cameras = [ 11; 7; 10; 3; 6; 9 ] in
  Printf.printf "field: %d nodes, %d links; sink=%d; %d cameras at %.1f Mbps each\n"
    (Topology.n_nodes topo) (Topology.n_links topo) sink (List.length cameras) stream_rate_mbps;

  let flows = List.map (fun cam -> (cam, sink, stream_rate_mbps)) cameras in
  let run = Admission.run ~stop_on_failure:false topo model ~metric:Metrics.Average_e2e_delay ~flows in

  let background = ref [] in
  List.iter
    (fun (step : Admission.step) ->
      (match step.Admission.path with
       | None -> Printf.printf "camera %2d: no route\n" step.Admission.source
       | Some path ->
         (* What a node running the paper's distributed estimator would
            have predicted, vs the LP ground truth. *)
         let schedule =
           match Path_bandwidth.background_schedule model !background with
           | Some s -> s
           | None -> assert false
         in
         let obs =
           Array.of_list
             (List.map
                (fun l ->
                  {
                    Estimators.rate_mbps = Topology.alone_mbps topo l;
                    idleness = Idleness.link_idleness topo schedule l;
                  })
                path)
         in
         let rate_of l = Topology.alone_rate topo l in
         let cliques = Clique.local_cliques model ~path_links:path ~rate_of in
         let est = Estimators.conservative ~cliques obs in
         Printf.printf "camera %2d: %d hops, truth %.2f Mbps, conservative estimate %.2f -> %s\n"
           step.Admission.source (List.length path) step.Admission.available_mbps est
           (if step.Admission.admitted then "ADMIT" else "REJECT"));
      if step.Admission.admitted then
        match step.Admission.path with
        | Some p ->
          background := Flow.make ~path:p ~demand_mbps:step.Admission.demand_mbps :: !background
        | None -> ())
    run.Admission.steps;
  Printf.printf "admitted %d of %d streams\n"
    (List.length (List.filter (fun s -> s.Admission.admitted) run.Admission.steps))
    (List.length cameras)

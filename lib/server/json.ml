(* The codec lives in [Wsn_telemetry.Json]; this alias keeps the name
   [Wsn_admission.Json] that the timing harness in benchmark/ uses. *)
include Wsn_telemetry.Json

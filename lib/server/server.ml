module Pool = Wsn_parallel.Pool
module Telemetry = Wsn_telemetry.Registry

let m_connections = Telemetry.counter "server.connections"

let m_batches = Telemetry.counter "server.batches"

let m_requests = Telemetry.counter "server.requests"

(* --- Line reader over a raw fd ------------------------------------- *)

(* Buffered reads stay on [Unix.read] so [select] remains truthful:
   lines already split live in [pending], partial data in [partial].
   This is what lets a wave drain exactly the bytes that have arrived
   without blocking for more.  A line longer than [max_line] bytes is
   not buffered: the reader drops its bytes up to the next newline and
   queues one [Too_long] in its place, so memory stays bounded and the
   stream resyncs on the following line. *)
module Line_reader = struct
  type line = Line of string | Too_long

  type t = {
    fd : Unix.file_descr;
    max_line : int;
    pending : line Queue.t;
    partial : Buffer.t;
    mutable skipping : bool;  (* inside a line already past [max_line] *)
    mutable eof : bool;
  }

  let create ~max_line fd =
    { fd; max_line; pending = Queue.create (); partial = Buffer.create 256; skipping = false;
      eof = false }

  let end_line t =
    Queue.add (if t.skipping then Too_long else Line (Buffer.contents t.partial)) t.pending;
    Buffer.clear t.partial;
    t.skipping <- false

  let split_into t chunk len =
    for i = 0 to len - 1 do
      match Bytes.get chunk i with
      | '\n' -> end_line t
      | c ->
        if t.skipping then ()
        else if Buffer.length t.partial >= t.max_line then begin
          Buffer.reset t.partial;
          t.skipping <- true
        end
        else Buffer.add_char t.partial c
    done

  (* One [read]; [false] on EOF.  Caller has checked readability (or
     accepts blocking). *)
  let fill t =
    let chunk = Bytes.create 4096 in
    match Unix.read t.fd chunk 0 4096 with
    | 0 ->
      t.eof <- true;
      if Buffer.length t.partial > 0 || t.skipping then end_line t;
      false
    | n ->
      split_into t chunk n;
      true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

  let readable t = match Unix.select [ t.fd ] [] [] 0.0 with [], _, _ -> false | _ -> true

  (* Blocking next line; [None] at EOF. *)
  let rec next_line t =
    match Queue.take_opt t.pending with
    | Some l -> Some l
    | None -> if t.eof then None else if fill t then next_line t else Queue.take_opt t.pending

  (* Already-arrived extra lines, up to [max] — never blocks. *)
  let drain t ~max =
    let rec go acc n =
      if n = 0 then List.rev acc
      else
        match Queue.take_opt t.pending with
        | Some l -> go (l :: acc) (n - 1)
        | None ->
          if (not t.eof) && readable t && fill t && not (Queue.is_empty t.pending) then go acc n
          else List.rev acc
    in
    go [] max
end

(* Longest request line a server reads: 1 MiB, newline excluded. *)
let max_request_line = 1 lsl 20

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

(* --- Session loop over a byte stream ------------------------------- *)

(* Serve [session] until EOF or shutdown; returns [true] when shutdown
   was requested (the socket server uses it to stop accepting). *)
let serve_stream ~session ~batch fd_in fd_out =
  let lr = Line_reader.create ~max_line:max_request_line fd_in in
  let shutdown = ref false in
  let seq = ref 0 in
  let rec loop () =
    match Line_reader.next_line lr with
    | None -> ()
    | Some first ->
      let wave = first :: Line_reader.drain lr ~max:(batch - 1) in
      Telemetry.incr m_batches;
      Telemetry.add m_requests (List.length wave);
      let out = Buffer.create 256 in
      List.iter
        (fun line ->
          if not !shutdown then begin
            incr seq;
            let response, stop =
              match line with
              | Line_reader.Line l -> Session.handle_line session ~seq:!seq l
              | Line_reader.Too_long ->
                ( Session.reject_line session ~seq:!seq
                    (Printf.sprintf "line too long (limit %d bytes)" max_request_line),
                  false )
            in
            Buffer.add_string out response;
            Buffer.add_char out '\n';
            if stop then shutdown := true
          end)
        wave;
      write_all fd_out (Buffer.contents out);
      if not !shutdown then loop ()
  in
  loop ();
  !shutdown

let run_stdio ~session ?(batch = 32) fd_in fd_out =
  if batch < 1 then invalid_arg "Server.run_stdio: batch must be >= 1";
  ignore (serve_stream ~session ~batch fd_in fd_out)

(* --- Unix-domain socket server ------------------------------------- *)

let run_socket ~make_session ?(batch = 32) ?max_conns ~path () =
  if batch < 1 then invalid_arg "Server.run_socket: batch must be >= 1";
  (match max_conns with
   | Some n when n < 1 -> invalid_arg "Server.run_socket: max_conns must be >= 1"
   | Some _ | None -> ());
  if String.length path >= 100 then invalid_arg "Server.run_socket: socket path too long";
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  let served = ref 0 in
  let stop = ref false in
  let pool = Pool.global () in
  let remaining () = match max_conns with Some n -> n - !served | None -> max_int in
  (* Accept the first connection blocking, then sweep up whatever else
     is already queued so independent clients are served as one
     parallel wave over the domain pool. *)
  let accept_wave () =
    match Unix.accept sock with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | first, _ ->
      let rec sweep acc n =
        if n <= 0 then List.rev acc
        else
          match Unix.select [ sock ] [] [] 0.0 with
          | [], _, _ -> List.rev acc
          | _ -> (
            match Unix.accept sock with
            | conn, _ -> sweep (conn :: acc) (n - 1)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> List.rev acc)
      in
      first :: sweep [] (remaining () - 1)
  in
  let serve_conn conn =
    let session = make_session () in
    (* A peer that hangs up early ends its own connection only. *)
    let shutdown =
      try serve_stream ~session ~batch conn conn
      with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> false
    in
    (try Unix.close conn with Unix.Unix_error _ -> ());
    shutdown
  in
  (* Ignoring SIGPIPE turns a write to a closed peer into the EPIPE
     that [serve_conn] handles, instead of killing the process. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Sys.set_signal Sys.sigpipe sigpipe)
    (fun () ->
      while (not !stop) && remaining () > 0 do
        let conns = accept_wave () in
        served := !served + List.length conns;
        Telemetry.add m_connections (List.length conns);
        let shutdowns =
          match conns with
          | [ one ] -> [ serve_conn one ]
          | many -> Pool.map_list pool serve_conn many
        in
        if List.exists Fun.id shutdowns then stop := true
      done)

(* --- Client -------------------------------------------------------- *)

let run_client ~path ~lines f =
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect sock (Unix.ADDR_UNIX path);
      let buf = Buffer.create 1024 in
      List.iter
        (fun l ->
          Buffer.add_string buf l;
          Buffer.add_char buf '\n')
        lines;
      write_all sock (Buffer.contents buf);
      Unix.shutdown sock Unix.SHUTDOWN_SEND;
      (* Responses are not capped: [Too_long] never comes back. *)
      let lr = Line_reader.create ~max_line:max_int sock in
      let rec go () =
        match Line_reader.next_line lr with
        | Some (Line_reader.Line l) ->
          f l;
          go ()
        | Some Line_reader.Too_long | None -> ()
      in
      go ())

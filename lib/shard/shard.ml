(* Sharded multi-process verification: the fleet half of the service
   daemon. The coordinator is {!Serve}'s one daemon run with its fleet
   executor — admission, frames, journal, watchdog, re-queues and drain
   all live there — so this module adds only the worker: a thin lease
   loop over {!Serve.solve} with its own domain pool, sharing one on-disk
   verdict store with the rest of the fleet. *)

module Json = Report.Json
module Journal = Report.Journal
module Wire = Serve.Wire
module Coordinator = Serve.Fleet

module Worker = struct
  type config = {
    socket_path : string;
    name : string;
    resolve :
      Serve.job_spec -> (string * Aqed.Check.obligation, string) result;
    store : Store.t option;
    pool_workers : int;
    heartbeat_s : float;
  }

  let config ?name ?store ?(pool_workers = 1) ?(heartbeat_s = 1.0) ~resolve
      socket_path =
    {
      socket_path;
      name =
        (match name with
         | Some n -> n
         | None -> Printf.sprintf "w%d" (Unix.getpid ()));
      resolve;
      store;
      pool_workers = max 1 pool_workers;
      heartbeat_s = Float.max 0.05 heartbeat_s;
    }

  type summary = {
    wk_leases : int;
    wk_completed : int;
    wk_timeouts : int;
    wk_errors : int;
  }

  (* The coordinator may be spawned concurrently with its workers (serve
     --workers N forks before the socket necessarily exists), so the
     connect retries for up to this long. *)
  let connect_timeout_s = 30.

  let connect_retry path =
    let deadline = Unix.gettimeofday () +. connect_timeout_s in
    let rec go () =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception
          Unix.Unix_error
            ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _)
        when Unix.gettimeofday () < deadline ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Thread.delay 0.1;
        go ()
      | exception Unix.Unix_error (e, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        failwith
          (Printf.sprintf "worker: cannot reach coordinator at %s: %s" path
             (Unix.error_message e))
    in
    go ()

  (* The job the worker is solving right now, as the ticker sees it. *)
  type lease = {
    ls_job : int;
    ls_epoch : int;
    ls_deadline : float;
    ls_cancel : bool Atomic.t;
    mutable ls_last_beat : float;
  }

  let run cfg =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let fd = connect_retry cfg.socket_path in
    let r = Wire.reader fd in
    (* [wlock] serialises every socket write and guards [current]. The
       job loop clears [current] under it before sending a result, and
       the ticker sends a heartbeat only while holding it with the lease
       still registered, so no heartbeat for a lease can follow that
       lease's result frame. *)
    let wlock = Mutex.create () in
    let current = ref None in
    let send j = Mutex.protect wlock (fun () -> Wire.send_frame fd j) in
    let set_lease l = Mutex.protect wlock (fun () -> current := l) in
    (* One ticker for the worker's lifetime: heartbeats the registered
       lease every [heartbeat_s] and cancels it at its deadline. Nothing
       on the result path waits for it; only [run]'s exit joins it. *)
    let tick_once () =
      Mutex.protect wlock @@ fun () ->
      match !current with
      | None -> ()
      | Some l ->
        let now = Unix.gettimeofday () in
        if now >= l.ls_deadline then Atomic.set l.ls_cancel true;
        if now -. l.ls_last_beat >= cfg.heartbeat_s then begin
          l.ls_last_beat <- now;
          try
            Wire.send_frame fd
              (Json.Obj
                 [ ("op", Json.Str "heartbeat");
                   ("worker", Json.Str cfg.name);
                   ("job", Json.Int l.ls_job);
                   ("epoch", Json.Int l.ls_epoch) ])
          with Unix.Unix_error _ -> ()
        end
    in
    let pool = Parallel.Pool.create ~workers:cfg.pool_workers () in
    let cache = Aqed.Check.create_cache () in
    let leases = ref 0 and completed = ref 0 in
    let timeouts = ref 0 and errors = ref 0 in
    let lease_op =
      Json.Obj
        [ ("op", Json.Str "lease");
          ("worker", Json.Str cfg.name);
          ("pid", Json.Int (Unix.getpid ())) ]
    in
    (* Solve one leased job on this worker's own pool, the ticker
       heartbeating it and enforcing its deadline through the same
       cooperative cancellation as the in-process daemon's. The lease is
       registered only once the spec resolves, so a hung resolve is
       heartbeat silence. Every lease ends in exactly one result frame. *)
    let do_job j =
      let id = Json.int_or 0 (Json.member "job" j) in
      let epoch = Json.int_or 0 (Json.member "epoch" j) in
      let timeout_s = Json.float_or 300. (Json.member "timeout_s" j) in
      incr leases;
      let resolved =
        match Serve.job_spec_of_json (Json.member "spec" j) with
        | spec -> Result.map (fun ob -> (spec, ob)) (cfg.resolve spec)
        | exception (Failure m | Json.Parse_error m) -> Error m
      in
      let outcome, wall =
        match resolved with
        | Error m -> (`Error m, 0.)
        | Ok (spec, ob) ->
          let cancel = Atomic.make false in
          set_lease
            (Some
               {
                 ls_job = id;
                 ls_epoch = epoch;
                 ls_deadline = Unix.gettimeofday () +. timeout_s;
                 ls_cancel = cancel;
                 ls_last_beat = 0.;
               });
          let r =
            Serve.solve ~span:"shard.job" ~job:id ~pool ~cache
              ?store:cfg.store ~certify:spec.Serve.sj_certify ~cancel ob
          in
          set_lease None;
          r
      in
      let fields =
        match outcome with
        | `Done oblig ->
          incr completed;
          [ ("outcome", Json.Str "done");
            ("obligation", Journal.json_of_obligation oblig) ]
        | `Timeout ->
          incr timeouts;
          [ ("outcome", Json.Str "timeout") ]
        | `Error m ->
          incr errors;
          [ ("outcome", Json.Str "error"); ("message", Json.Str m) ]
      in
      send
        (Json.Obj
           ([ ("op", Json.Str "result");
              ("worker", Json.Str cfg.name);
              ("job", Json.Int id);
              ("epoch", Json.Int epoch);
              ("wall_s", Json.Float wall) ]
            @ fields))
    in
    let rec loop () =
      match Wire.read_frame r with
      | None -> () (* coordinator gone *)
      | exception Json.Parse_error _ -> ()
      | Some j -> (
          match Json.str_or "" (Json.member "frame" j) with
          | "drain" -> ()
          | "job" -> (
              match
                do_job j;
                send lease_op
              with
              | () -> loop ()
              | exception Unix.Unix_error _ -> () (* coordinator gone *))
          | _ -> loop ())
    in
    let ticker_stop = Atomic.make false in
    let ticker =
      Thread.create
        (fun () ->
          while not (Atomic.get ticker_stop) do
            tick_once ();
            Thread.delay 0.05
          done)
        ()
    in
    Fun.protect
      ~finally:(fun () ->
        Atomic.set ticker_stop true;
        Thread.join ticker)
      (fun () ->
        match send lease_op with
        | () -> loop ()
        | exception Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Parallel.Pool.shutdown pool;
    {
      wk_leases = !leases;
      wk_completed = !completed;
      wk_timeouts = !timeouts;
      wk_errors = !errors;
    }
end

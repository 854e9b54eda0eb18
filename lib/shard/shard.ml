(* Sharded multi-process verification: coordinator + worker.

   The coordinator owns the service socket and speaks the daemon's exact
   client protocol (submit/status requests, accepted/done/timeout/error/
   busy/status frames — [aqed_cli submit] cannot tell them apart), but
   instead of solving on a local pool it appends every admitted job to a
   pending queue and leases queue entries, one obligation at a time, to
   worker processes over the same socket:

     {"op":"lease","worker":W,"pid":P}        worker asks for work
     {"frame":"job","job":N,"epoch":E,...}      ... and gets one job
     {"frame":"drain"}                          ... or is sent home
     {"op":"heartbeat","job":N,"epoch":E}     while the worker solves
     {"op":"result","job":N,"epoch":E,...}    terminal outcome

   Work-stealing falls out of the queue shape: whichever worker goes
   idle first takes the oldest pending job, including jobs re-queued
   from a crashed peer (those leases are counted as steals).

   Robustness model — the re-queue invariant:
   - every accepted job reaches exactly one terminal frame and exactly
     one of completed/timeouts/errors, whatever workers do;
   - a worker that crashes mid-job (EOF on its connection), goes silent
     past [heartbeat_grace_s], or garbles a frame has its lease
     re-queued at the *front* of the pending queue under a bumped
     epoch; a late result from the old lease is dropped by its stale
     epoch. Re-solving a re-queued obligation is harmless: effects are
     at-most-once because store writes are content-addressed — the
     duplicate solve re-derives the same certified entry;
   - a still-heartbeating worker that overruns the job deadline by
     [lease_grace_s] gets the job answered as a timeout by the
     coordinator itself (the worker enforces the deadline through
     cooperative cancellation, so this fires only when cancellation
     could not bite — a wedged solve must not hang its client);
   - a job re-queued more than [max_requeues] times, or pending with no
     worker connected past [pending_grace_s], is answered with a typed
     error frame instead of cycling through the fleet forever;
   - [stop] (wired to SIGTERM/SIGINT by the CLI) drains exactly like the
     daemon: no new submits, leased and pending jobs reach terminal
     frames, then every waiting worker receives [drain] and the journal
     holds one record per completion, meta first. *)

module Json = Report.Json
module Journal = Report.Journal
module Wire = Serve.Wire

(* ---- telemetry ---- *)

let m_leases = Telemetry.Counter.make "shard.leases"
let m_steals = Telemetry.Counter.make "shard.steals"
let m_requeued = Telemetry.Counter.make "shard.requeued"
let m_worker_deaths = Telemetry.Counter.make "shard.worker_deaths"
let m_stale_results = Telemetry.Counter.make "shard.stale_results"
let g_workers = Telemetry.Gauge.make "shard.workers"
let g_pending = Telemetry.Gauge.make "shard.pending"

(* One gauge per worker name, interned on first use: 1 while the worker
   holds a lease, 0 while idle — a live load map of the fleet. *)
let worker_gauge name =
  Telemetry.Gauge.make (Printf.sprintf "shard.worker.%s.active" name)

(* Granularity of blocking-read timeouts and of the watchdog: every
   [tick] seconds a reader re-checks its budget and the drain flag. *)
let tick = 0.25

module Coordinator = struct
  type config = {
    socket_path : string;
    validate : Serve.job_spec -> (unit, string) result;
    capacity : int;
    job_timeout_s : float;
    idle_timeout_s : float;
    heartbeat_grace_s : float;
    lease_grace_s : float;
    pending_grace_s : float;
    max_requeues : int;
    journal : (string * Journal.meta) option;
  }

  let config ?(validate = fun _ -> Ok ()) ?(capacity = 32)
      ?(job_timeout_s = 300.) ?(idle_timeout_s = 30.)
      ?(heartbeat_grace_s = 5.) ?(lease_grace_s = 10.)
      ?(pending_grace_s = 60.) ?(max_requeues = 3) ?journal socket_path =
    {
      socket_path;
      validate;
      capacity = max 1 capacity;
      job_timeout_s;
      idle_timeout_s;
      heartbeat_grace_s;
      lease_grace_s;
      pending_grace_s;
      max_requeues = max 0 max_requeues;
      journal;
    }

  type stats = {
    st_pending : int;
    st_leased : int;
    st_workers : int;
    st_accepted : int;
    st_completed : int;
    st_timeouts : int;
    st_rejected : int;
    st_errors : int;
    st_leases : int;
    st_steals : int;
    st_requeued : int;
    st_worker_deaths : int;
    st_stale_results : int;
  }

  type lease_view = {
    lv_job : int;
    lv_design : string;
    lv_worker : string;
    lv_pid : int;
  }

  type terminal =
    | T_done of Journal.obligation * float
    | T_timeout of float
    | T_error of string

  type lease = {
    l_worker : string;
    l_pid : int;
    l_started : float;
  }

  type jstate = Pending | Leased of lease | Finished

  type job = {
    j_id : int;
    j_spec : Serve.job_spec;
    j_timeout_s : float;
    j_submitted : float;
    mutable j_epoch : int;   (* bumped on re-queue and on finalize, so a
                                result from a lost lease is recognizably
                                stale *)
    mutable j_state : jstate;
    mutable j_requeues : int;
    mutable j_terminal : terminal option;  (* set exactly once *)
    j_cond : Condition.t;    (* waited on by the submitting client's
                                connection thread, with [t.lock] *)
  }

  type t = {
    cfg : config;
    listen_fd : Unix.file_descr;
    stop_flag : bool Atomic.t;
    wd_stop : bool Atomic.t;
    lock : Mutex.t;  (* guards every mutable field below, [pending_cond]
                        and each job's [j_cond] *)
    pending_cond : Condition.t;  (* pending pushed / job finalized /
                                    watchdog tick — lease-waiters and
                                    drain-waiters re-check on wake *)
    mutable pending : int list;  (* job ids, oldest first; re-queues are
                                    prepended so stolen work runs first *)
    jobs : (int, job) Hashtbl.t;  (* live (non-terminal) jobs only *)
    mutable next_job : int;
    mutable active : int;
    mutable accepted : int;
    mutable completed : int;
    mutable timeouts : int;
    mutable rejected : int;
    mutable errors : int;
    mutable leases : int;
    mutable steals : int;
    mutable requeued : int;
    mutable worker_deaths : int;
    mutable stale_results : int;
    mutable workers_live : int;
    jlock : Mutex.t;
    mutable journal_started : bool;
    mutable conns : Thread.t list;
    mutable accept_th : Thread.t option;
    mutable watchdog_th : Thread.t option;
  }

  let locked srv f =
    Mutex.lock srv.lock;
    match f () with
    | v ->
      Mutex.unlock srv.lock;
      v
    | exception e ->
      Mutex.unlock srv.lock;
      raise e

  (* ---- frames ---- *)

  let error_frame msg =
    Json.Obj [ ("frame", Json.Str "error"); ("message", Json.Str msg) ]

  let stats_of_locked srv =
    let leased =
      Hashtbl.fold
        (fun _ j n -> match j.j_state with Leased _ -> n + 1 | _ -> n)
        srv.jobs 0
    in
    {
      st_pending = List.length srv.pending;
      st_leased = leased;
      st_workers = srv.workers_live;
      st_accepted = srv.accepted;
      st_completed = srv.completed;
      st_timeouts = srv.timeouts;
      st_rejected = srv.rejected;
      st_errors = srv.errors;
      st_leases = srv.leases;
      st_steals = srv.steals;
      st_requeued = srv.requeued;
      st_worker_deaths = srv.worker_deaths;
      st_stale_results = srv.stale_results;
    }

  let stats srv = locked srv (fun () -> stats_of_locked srv)

  let leases srv =
    locked srv (fun () ->
        Hashtbl.fold
          (fun _ j acc ->
            match j.j_state with
            | Leased l ->
              {
                lv_job = j.j_id;
                lv_design = j.j_spec.Serve.sj_design;
                lv_worker = l.l_worker;
                lv_pid = l.l_pid;
              }
              :: acc
            | _ -> acc)
          srv.jobs [])

  let status_frame srv =
    let s = stats srv in
    Json.Obj
      [ ("frame", Json.Str "status");
        ("active", Json.Int (s.st_pending + s.st_leased));
        ("queued", Json.Int s.st_pending);
        ("capacity", Json.Int srv.cfg.capacity);
        ("accepted", Json.Int s.st_accepted);
        ("completed", Json.Int s.st_completed);
        ("timeouts", Json.Int s.st_timeouts);
        ("rejected", Json.Int s.st_rejected);
        ("errors", Json.Int s.st_errors);
        ("draining", Json.Bool (Atomic.get srv.stop_flag));
        ("workers", Json.Int s.st_workers);
        ("leased", Json.Int s.st_leased);
        ("leases", Json.Int s.st_leases);
        ("steals", Json.Int s.st_steals);
        ("requeued", Json.Int s.st_requeued);
        ("worker_deaths", Json.Int s.st_worker_deaths);
        ("stale_results", Json.Int s.st_stale_results) ]

  let busy_frame srv =
    let active, draining =
      locked srv (fun () -> (srv.active, Atomic.get srv.stop_flag))
    in
    Json.Obj
      [ ("frame", Json.Str "busy");
        ("active", Json.Int active);
        ("capacity", Json.Int srv.cfg.capacity);
        ("draining", Json.Bool draining) ]

  (* ---- journal ---- *)

  let journal_append srv oblig =
    match srv.cfg.journal with
    | None -> ()
    | Some (path, meta) ->
      Mutex.lock srv.jlock;
      Fun.protect ~finally:(fun () -> Mutex.unlock srv.jlock) @@ fun () ->
      let records =
        if srv.journal_started then [ Journal.Obligation oblig ]
        else [ Journal.Meta meta; Journal.Obligation oblig ]
      in
      (match Journal.append path records with
       | () -> srv.journal_started <- true
       | exception Sys_error m ->
         Printf.eprintf "shard: journal append failed: %s\n%!" m)

  (* ---- lifecycle of one job ---- *)

  (* Under [srv.lock]. Sets the terminal state exactly once; the caller
     journals a [T_done] obligation *outside* the lock. Returns whether
     this call was the one that finalized. *)
  let finalize_locked srv job term =
    match job.j_terminal with
    | Some _ -> false
    | None ->
      job.j_terminal <- Some term;
      job.j_state <- Finished;
      job.j_epoch <- job.j_epoch + 1;
      Hashtbl.remove srv.jobs job.j_id;
      srv.active <- srv.active - 1;
      (match term with
       | T_done _ -> srv.completed <- srv.completed + 1
       | T_timeout _ -> srv.timeouts <- srv.timeouts + 1
       | T_error _ -> srv.errors <- srv.errors + 1);
      Condition.broadcast job.j_cond;
      (* Drain-waiting workers watch [active]; wake them to re-check. *)
      Condition.broadcast srv.pending_cond;
      true

  (* Under [srv.lock]. Give a lost lease back to the queue — or, past
     the re-queue budget, fail the job with a typed error so one
     worker-killing obligation cannot cycle through the fleet forever. *)
  let requeue_locked srv job =
    if job.j_terminal = None then begin
      job.j_epoch <- job.j_epoch + 1;
      job.j_requeues <- job.j_requeues + 1;
      if job.j_requeues > srv.cfg.max_requeues then
        ignore
          (finalize_locked srv job
             (T_error
                (Printf.sprintf
                   "job failed on %d workers (crashed or silent); giving up"
                   job.j_requeues)))
      else begin
        job.j_state <- Pending;
        srv.pending <- job.j_id :: srv.pending;
        srv.requeued <- srv.requeued + 1;
        Telemetry.Counter.incr m_requeued;
        Telemetry.Gauge.set g_pending (List.length srv.pending);
        Condition.broadcast srv.pending_cond
      end
    end

  (* ---- connection I/O ---- *)

  type conn = {
    fd : Unix.file_descr;
    chunk : Bytes.t;
    mutable inbuf : string;
  }

  let take_line c =
    match String.index_opt c.inbuf '\n' with
    | None -> None
    | Some i ->
      let line = String.sub c.inbuf 0 i in
      c.inbuf <- String.sub c.inbuf (i + 1) (String.length c.inbuf - i - 1);
      Some line

  (* One frame within [budget] seconds, at [tick] granularity
     (SO_RCVTIMEO). [`Silent] on budget exhaustion, [`Eof] on a closed
     or garbled peer. Bytes arriving reset nothing — the budget is the
     caller's liveness contract (heartbeat grace, idle timeout), and
     every frame delivery restarts it at the call site. *)
  let read_budget c budget =
    let rec go left =
      match take_line c with
      | Some l when String.trim l = "" -> go left
      | Some l -> (
          match Json.of_string l with
          | j -> `Frame j
          | exception Json.Parse_error _ -> `Eof)
      | None ->
        if left <= 0. then `Silent
        else begin
          match Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) with
          | 0 -> `Eof
          | n ->
            c.inbuf <- c.inbuf ^ Bytes.sub_string c.chunk 0 n;
            go left
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            go (left -. tick)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go left
          | exception Unix.Unix_error (_, _, _) -> `Eof
        end
    in
    go budget

  (* Client-side request read: like the daemon's — bounded by the idle
     timeout, cut short by the drain flag. *)
  let recv_request srv c =
    let rec go left =
      if Atomic.get srv.stop_flag then None
      else
        match read_budget c tick with
        | `Frame j -> Some j
        | `Eof -> None
        | `Silent ->
          let left = left -. tick in
          if left <= 0. then None else go left
    in
    go srv.cfg.idle_timeout_s

  (* ---- client requests ---- *)

  let handle_submit srv fd j =
    match Serve.job_spec_of_json j with
    | exception (Failure m | Json.Parse_error m) ->
      Wire.send_frame fd (error_frame ("bad submit: " ^ m));
      `Close
    | spec -> (
        match srv.cfg.validate spec with
        | Error m ->
          Wire.send_frame fd (error_frame m);
          `Close
        | Ok () ->
          let admitted =
            locked srv (fun () ->
                if
                  Atomic.get srv.stop_flag
                  || srv.active >= srv.cfg.capacity
                then begin
                  srv.rejected <- srv.rejected + 1;
                  None
                end
                else begin
                  srv.next_job <- srv.next_job + 1;
                  srv.active <- srv.active + 1;
                  srv.accepted <- srv.accepted + 1;
                  let job =
                    {
                      j_id = srv.next_job;
                      j_spec = spec;
                      j_timeout_s =
                        (match spec.Serve.sj_timeout_s with
                         | Some t -> t
                         | None -> srv.cfg.job_timeout_s);
                      j_submitted = Unix.gettimeofday ();
                      j_epoch = 0;
                      j_state = Pending;
                      j_requeues = 0;
                      j_terminal = None;
                      j_cond = Condition.create ();
                    }
                  in
                  Hashtbl.replace srv.jobs job.j_id job;
                  srv.pending <- srv.pending @ [ job.j_id ];
                  Telemetry.Gauge.set g_pending (List.length srv.pending);
                  Condition.broadcast srv.pending_cond;
                  Some job
                end)
          in
          (match admitted with
           | None -> Wire.send_frame fd (busy_frame srv)
           | Some job ->
             (* Admitted: even if this client vanishes now, the job runs
                to a terminal state and accounting holds — the frame
                writes below are drop-safe. *)
             Wire.send_frame_safe fd
               (Json.Obj
                  [ ("frame", Json.Str "accepted");
                    ("job", Json.Int job.j_id) ]);
             let term =
               locked srv (fun () ->
                   let rec wait () =
                     match job.j_terminal with
                     | Some t -> t
                     | None ->
                       Condition.wait job.j_cond srv.lock;
                       wait ()
                   in
                   wait ())
             in
             (match term with
              | T_done (oblig, wall) ->
                Wire.send_frame_safe fd
                  (Json.Obj
                     [ ("frame", Json.Str "done");
                       ("job", Json.Int job.j_id);
                       ("wall_s", Json.Float wall);
                       ("obligation", Journal.json_of_obligation oblig) ])
              | T_timeout wall ->
                Wire.send_frame_safe fd
                  (Json.Obj
                     [ ("frame", Json.Str "timeout");
                       ("job", Json.Int job.j_id);
                       ("wall_s", Json.Float wall) ])
              | T_error msg ->
                Wire.send_frame_safe fd
                  (Json.Obj
                     [ ("frame", Json.Str "error");
                       ("job", Json.Int job.j_id);
                       ("message", Json.Str msg) ])));
          `Continue)

  (* ---- worker leases ---- *)

  (* Blocks until there is a job to lease or the fleet is drained.
     Returns with the job already marked leased (under the lock), so no
     other worker can race for it. *)
  let next_job srv ~worker ~pid =
    locked srv @@ fun () ->
    let rec pop () =
      match srv.pending with
      | [] -> None
      | id :: rest -> (
          srv.pending <- rest;
          match Hashtbl.find_opt srv.jobs id with
          | Some job when job.j_terminal = None -> (
              match job.j_state with Pending -> Some job | _ -> pop ())
          | _ -> pop () (* finalized while queued (pending grace) *))
    in
    let rec go () =
      match pop () with
      | Some job ->
        job.j_state <-
          Leased
            {
              l_worker = worker;
              l_pid = pid;
              l_started = Unix.gettimeofday ();
            };
        srv.leases <- srv.leases + 1;
        Telemetry.Counter.incr m_leases;
        if job.j_requeues > 0 then begin
          srv.steals <- srv.steals + 1;
          Telemetry.Counter.incr m_steals
        end;
        Telemetry.Gauge.set g_pending (List.length srv.pending);
        `Job (job, job.j_epoch)
      | None ->
        if Atomic.get srv.stop_flag && srv.active = 0 then `Drain
        else begin
          (* Woken by a submit, a re-queue, a finalize, or the watchdog
             tick (which exists so a drain begun from a signal handler —
             where broadcasting is unsafe — still wakes us). *)
          Condition.wait srv.pending_cond srv.lock;
          go ()
        end
    in
    go ()

  let job_frame job epoch =
    Json.Obj
      [ ("frame", Json.Str "job");
        ("job", Json.Int job.j_id);
        ("epoch", Json.Int epoch);
        ("timeout_s", Json.Float job.j_timeout_s);
        ("requeues", Json.Int job.j_requeues);
        ("spec", Serve.json_of_job_spec job.j_spec) ]

  (* A result frame from a worker. Epoch-checked under the lock: a
     result for a re-queued or already-finalized lease is dropped (the
     solve it reports was re-run or superseded — at-most-once effects
     hold because store writes are content-addressed). *)
  let handle_result srv j =
    let id = Json.int_or (-1) (Json.member "job" j) in
    let epoch = Json.int_or (-1) (Json.member "epoch" j) in
    let outcome = Json.str_or "" (Json.member "outcome" j) in
    let wall = Json.float_or 0. (Json.member "wall_s" j) in
    (* Parse outside the lock; a malformed obligation payload fails the
       job rather than poisoning the coordinator. *)
    let term =
      match outcome with
      | "done" -> (
          match Journal.obligation_of_json (Json.member "obligation" j) with
          | oblig -> T_done (oblig, wall)
          | exception _ -> T_error "worker sent a malformed result payload")
      | "timeout" -> T_timeout wall
      | _ ->
        T_error
          (match Json.str_or "" (Json.member "message" j) with
           | "" -> "worker error"
           | m -> m)
    in
    let finalized =
      locked srv (fun () ->
          match Hashtbl.find_opt srv.jobs id with
          | Some job when job.j_epoch = epoch ->
            if finalize_locked srv job term then `Finalized
            else `Stale
          | _ ->
            srv.stale_results <- srv.stale_results + 1;
            Telemetry.Counter.incr m_stale_results;
            `Stale)
    in
    match (finalized, term) with
    | `Finalized, T_done (oblig, _) -> journal_append srv oblig
    | _ -> ()

  (* One worker connection: serve leases until the fleet drains or the
     worker dies. The first [lease] op was consumed by the dispatcher. *)
  let handle_worker srv c ~worker ~pid =
    let gauge = worker_gauge worker in
    locked srv (fun () ->
        srv.workers_live <- srv.workers_live + 1;
        Telemetry.Gauge.set g_workers srv.workers_live);
    let dead_with job_opt =
      locked srv (fun () ->
          srv.worker_deaths <- srv.worker_deaths + 1;
          Telemetry.Counter.incr m_worker_deaths;
          match job_opt with
          | Some (job, epoch) when job.j_epoch = epoch ->
            requeue_locked srv job
          | _ -> ())
    in
    (* Wait for the worker's terminal frame on [job]: heartbeats within
       the grace keep the lease alive; silence or EOF loses it. Returns
       [`Next] when the job reached a result (ours or stale) and the
       worker is ready to lease again. *)
    let rec await_result (job, epoch) =
      match read_budget c srv.cfg.heartbeat_grace_s with
      | `Eof | `Silent ->
        dead_with (Some (job, epoch));
        `Dead
      | `Frame j -> (
          match Json.str_or "" (Json.member "op" j) with
          | "heartbeat" -> await_result (job, epoch)
          | "result" ->
            handle_result srv j;
            `Next
          | _ -> await_result (job, epoch))
    in
    (* The next lease op follows a result within microseconds; silence
       here means the worker died between the two. A heartbeat that
       raced its own result is skipped, not taken for a broken peer. *)
    let rec await_lease () =
      match read_budget c srv.cfg.heartbeat_grace_s with
      | `Frame j -> (
          match Json.str_or "" (Json.member "op" j) with
          | "lease" -> `Lease
          | "heartbeat" -> await_lease ()
          | _ ->
            dead_with None;
            `Stop)
      | `Eof | `Silent ->
        dead_with None;
        `Stop
    in
    let rec serve_lease ~consumed =
      let proceed = if consumed then `Lease else await_lease () in
      match proceed with
      | `Stop -> ()
      | `Lease -> (
          match next_job srv ~worker ~pid with
          | `Drain -> Wire.send_frame_safe c.fd (Json.Obj [ ("frame", Json.Str "drain") ])
          | `Job (job, epoch) -> (
              Telemetry.Gauge.set gauge 1;
              match Wire.send_frame c.fd (job_frame job epoch) with
              | () ->
                let r = await_result (job, epoch) in
                Telemetry.Gauge.set gauge 0;
                (match r with
                 | `Dead -> ()
                 | `Next -> serve_lease ~consumed:false)
              | exception Unix.Unix_error _ ->
                (* The worker vanished between its lease and our job
                   frame: the job was never seen by anyone — requeue. *)
                Telemetry.Gauge.set gauge 0;
                dead_with (Some (job, epoch))))
    in
    serve_lease ~consumed:true;
    Telemetry.Gauge.set gauge 0;
    locked srv (fun () ->
        srv.workers_live <- srv.workers_live - 1;
        Telemetry.Gauge.set g_workers srv.workers_live)

  (* ---- connections ---- *)

  let handle_conn srv fd =
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO tick;
    let c = { fd; chunk = Bytes.create 4096; inbuf = "" } in
    let rec loop () =
      match recv_request srv c with
      | None -> ()
      | Some j -> (
          match Json.str_or "" (Json.member "op" j) with
          | "status" ->
            Wire.send_frame fd (status_frame srv);
            loop ()
          | "submit" -> (
              match handle_submit srv fd j with
              | `Continue -> loop ()
              | `Close -> ())
          | "lease" ->
            (* This connection is a worker from here on. *)
            let worker =
              match Json.str_or "" (Json.member "worker" j) with
              | "" -> "anonymous"
              | w -> w
            in
            let pid = Json.int_or 0 (Json.member "pid" j) in
            handle_worker srv c ~worker ~pid
          | op ->
            Wire.send_frame fd
              (error_frame (Printf.sprintf "unknown op %S" op)))
    in
    (try loop () with _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let self = Thread.id (Thread.self ()) in
    locked srv (fun () ->
        srv.conns <- List.filter (fun t -> Thread.id t <> self) srv.conns)

  (* ---- watchdog ---- *)

  (* Every tick: wake lease- and drain-waiters (a drain begun from a
     signal handler cannot broadcast, so the tick is what delivers it),
     answer leases that overran deadline + grace with a coordinator-side
     timeout, and fail jobs pending with no fleet attached. *)
  let watchdog srv () =
    while not (Atomic.get srv.wd_stop) do
      let now = Unix.gettimeofday () in
      locked srv (fun () ->
          let overdue = ref [] in
          Hashtbl.iter
            (fun _ job ->
              match (job.j_terminal, job.j_state) with
              | None, Leased l
                when now
                     > l.l_started +. job.j_timeout_s
                       +. srv.cfg.lease_grace_s ->
                overdue := (job, T_timeout (now -. l.l_started)) :: !overdue
              | None, Pending
                when srv.workers_live = 0
                     && now > job.j_submitted +. srv.cfg.pending_grace_s ->
                overdue :=
                  (job, T_error "no worker joined the fleet in time")
                  :: !overdue
              | _ -> ())
            srv.jobs;
          List.iter
            (fun (job, term) -> ignore (finalize_locked srv job term))
            !overdue;
          Condition.broadcast srv.pending_cond);
      Thread.delay tick
    done

  (* ---- lifecycle ---- *)

  let accept_loop srv () =
    let rec go () =
      if not (Atomic.get srv.stop_flag) then begin
        (match Unix.select [ srv.listen_fd ] [] [] 0.2 with
         | [], _, _ -> ()
         | _ -> (
             match Unix.accept srv.listen_fd with
             | fd, _ ->
               let th = Thread.create (handle_conn srv) fd in
               locked srv (fun () -> srv.conns <- th :: srv.conns)
             | exception Unix.Unix_error (_, _, _) -> ())
         | exception Unix.Unix_error (_, _, _) -> ());
        go ()
      end
    in
    go ()

  let start cfg =
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.unlink cfg.socket_path with Unix.Unix_error _ -> ());
    (try
       Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
       Unix.listen listen_fd 16
     with e ->
       (try Unix.close listen_fd with Unix.Unix_error _ -> ());
       raise e);
    let srv =
      {
        cfg;
        listen_fd;
        stop_flag = Atomic.make false;
        wd_stop = Atomic.make false;
        lock = Mutex.create ();
        pending_cond = Condition.create ();
        pending = [];
        jobs = Hashtbl.create 64;
        next_job = 0;
        active = 0;
        accepted = 0;
        completed = 0;
        timeouts = 0;
        rejected = 0;
        errors = 0;
        leases = 0;
        steals = 0;
        requeued = 0;
        worker_deaths = 0;
        stale_results = 0;
        workers_live = 0;
        jlock = Mutex.create ();
        journal_started = false;
        conns = [];
        accept_th = None;
        watchdog_th = None;
      }
    in
    srv.accept_th <- Some (Thread.create (accept_loop srv) ());
    srv.watchdog_th <- Some (Thread.create (watchdog srv) ());
    srv

  let stop srv = Atomic.set srv.stop_flag true

  let wait srv =
    Option.iter Thread.join srv.accept_th;
    (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink srv.cfg.socket_path with Unix.Unix_error _ -> ());
    (* Worker connections exit once every accepted job is terminal (the
       watchdog guarantees termination even with the whole fleet dead);
       client connections exit after their terminal frame, when the
       request read observes the drain flag. The watchdog must outlive
       the connections — its tick is what wakes drain-waiters. *)
    let conns = locked srv (fun () -> srv.conns) in
    List.iter Thread.join conns;
    Atomic.set srv.wd_stop true;
    Option.iter Thread.join srv.watchdog_th;
    stats srv
end

module Worker = struct
  type config = {
    socket_path : string;
    name : string;
    resolve :
      Serve.job_spec -> (string * Aqed.Check.obligation, string) result;
    store : Store.t option;
    pool_workers : int;
    heartbeat_s : float;
    connect_timeout_s : float;
  }

  let config ?name ?store ?(pool_workers = 1) ?(heartbeat_s = 1.0)
      ?(connect_timeout_s = 30.) ~resolve socket_path =
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
      connect_timeout_s;
    }

  type summary = {
    wk_leases : int;
    wk_completed : int;
    wk_timeouts : int;
    wk_errors : int;
  }

  (* The coordinator may be spawned concurrently with its workers (serve
     --workers N forks before the socket necessarily exists), so the
     connect retries within a budget. *)
  let connect_retry path budget =
    let deadline = Unix.gettimeofday () +. budget in
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
    let fd = connect_retry cfg.socket_path cfg.connect_timeout_s in
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
    let result_op id epoch fields =
      Json.Obj
        ([ ("op", Json.Str "result");
           ("worker", Json.Str cfg.name);
           ("job", Json.Int id);
           ("epoch", Json.Int epoch) ]
         @ fields)
    in
    (* Solve one leased job on this worker's own pool, the ticker
       heartbeating it and enforcing its deadline through the same
       cooperative cancellation as the daemon's. The lease is registered
       only once the spec resolves, so a hung resolve is heartbeat
       silence. Every lease ends in exactly one result frame. *)
    let do_job j =
      let id = Json.int_or 0 (Json.member "job" j) in
      let epoch = Json.int_or 0 (Json.member "epoch" j) in
      let timeout_s = Json.float_or 300. (Json.member "timeout_s" j) in
      incr leases;
      let resolved =
        match Serve.job_spec_of_json (Json.member "spec" j) with
        | spec -> (
            match cfg.resolve spec with
            | Ok (design, ob) -> Ok (spec, design, ob)
            | Error m -> Error m)
        | exception (Failure m | Json.Parse_error m) -> Error m
      in
      match resolved with
      | Error m ->
        incr errors;
        send
          (result_op id epoch
             [ ("outcome", Json.Str "error"); ("message", Json.Str m) ])
      | Ok (spec, design, ob) ->
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
        let t0 = Unix.gettimeofday () in
        let outcome =
          try
            Telemetry.Span.with_ "shard.job"
              ~args:
                [ ("job", Telemetry.Int id);
                  ("design", Telemetry.Str design) ]
            @@ fun () ->
            match
              Aqed.Check.run_batch ~pool ~cache ?store:cfg.store
                ~certify:spec.Serve.sj_certify ~cancel [ ob ]
            with
            | b -> (
                match b.Aqed.Check.entries with
                | [ e ] ->
                  `Done
                    (Journal.of_report ~design ~name:e.Aqed.Check.entry_name
                       ~cached:e.Aqed.Check.entry_cached
                       e.Aqed.Check.entry_report)
                | _ -> `Error "internal: batch returned no entry")
            | exception Sat.Solver.Cancelled -> `Timeout
            | exception Bmc.Engine.Certification_failed m ->
              `Error ("certification failed: " ^ m)
            | exception Failure m -> `Error m
          with e -> `Error ("uncaught: " ^ Printexc.to_string e)
        in
        let wall = Unix.gettimeofday () -. t0 in
        set_lease None;
        (match outcome with
         | `Done oblig ->
           incr completed;
           send
             (result_op id epoch
                [ ("outcome", Json.Str "done");
                  ("wall_s", Json.Float wall);
                  ("obligation", Journal.json_of_obligation oblig) ])
         | `Timeout ->
           incr timeouts;
           send
             (result_op id epoch
                [ ("outcome", Json.Str "timeout");
                  ("wall_s", Json.Float wall) ])
         | `Error m ->
           incr errors;
           send
             (result_op id epoch
                [ ("outcome", Json.Str "error");
                  ("wall_s", Json.Float wall);
                  ("message", Json.Str m) ]))
    in
    let rec loop () =
      match Wire.read_frame r with
      | None -> () (* coordinator gone *)
      | exception Json.Parse_error _ -> ()
      | Some j -> (
          match Json.str_or "" (Json.member "frame" j) with
          | "drain" -> ()
          | "job" -> (
              match do_job j with
              | () -> (
                  match send lease_op with
                  | () -> loop ()
                  | exception Unix.Unix_error _ -> ())
              | exception Unix.Unix_error _ ->
                (* result write failed: coordinator gone mid-job *)
                ())
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

(* The verification service daemon: one long-running process that admits
   solve jobs over a Unix-domain socket, bounds them, times them out,
   journals them and drains them. How an admitted job runs is the
   daemon's one point of variation, its executor:

   - in-process ([config]): the daemon owns one worker pool, one
     obligation cache and (optionally) one persistent verdict store, and
     the connection thread that admitted a job solves it on that pool;
   - fleet ([Fleet.config]): the daemon builds no obligation and runs no
     pool; admitted jobs wait on a pending queue and are leased, one
     obligation at a time, to worker processes (lib/shard) that connect
     to the same socket.

   Wire protocol: JSONL — one JSON object per line in both directions,
   printed and parsed with {!Report.Json} (the journal codec, so the
   service adds no dependency and its verdict frames are journal
   records). Client requests carry an ["op"]:

     {"op":"submit","design":D,...}   queue one obligation
     {"op":"status"}                  one status frame

   Replies carry a ["frame"]:

     accepted  {"frame":"accepted","job":N}
     busy      {"frame":"busy","active":A,"capacity":C,"draining":B}
     done      {"frame":"done","job":N,"wall_s":S,"obligation":{...}}
     timeout   {"frame":"timeout","job":N,"wall_s":S}
     error     {"frame":"error","message":M}
     status    {"frame":"status",...counters...}

   The ["obligation"] payload of a [done] frame is byte-identical to a
   journal obligation record ({!Report.Journal.json_of_obligation}), so a
   client can append it to a ledger or diff it against a direct
   [verify --journal] run. Fleet workers speak three more ops:

     {"op":"lease","worker":W,"pid":P}        worker asks for work
     {"frame":"job","job":N,"epoch":E,...}      ... and gets one job
     {"frame":"drain"}                          ... or is sent home
     {"op":"heartbeat","job":N,"epoch":E}     while the worker solves
     {"op":"result","job":N,"epoch":E,...}    terminal outcome

   Robustness model:
   - each connection is handled on its own systhread; a malformed client
     line gets an [error] reply and closes that connection only;
   - a client that disconnects mid-job cannot hurt the daemon: SIGPIPE
     is ignored at start, so frame writes to the dead socket fail with
     [EPIPE] and are dropped, while the job still runs to its terminal
     state;
   - admission is bounded: at [capacity] accepted-but-unfinished jobs, a
     submit gets a typed [busy] frame instead of queueing without bound;
   - every accepted job ends in [finalize], exactly once: one terminal
     frame and exactly one of completed/timeouts/errors. One watchdog
     trips an in-process job's cooperative cancel flag at its deadline
     (the solve unwinds through {!Sat.Solver.Cancelled} into a typed
     [timeout]; the pool survives), answers a fleet lease that overran
     its deadline by [lease_grace_s] (a wedged solve must not hang its
     client), and fails a job pending past [pending_grace_s] with no
     worker connected;
   - a fleet worker that crashes mid-job (EOF), goes silent past
     [heartbeat_grace_s] or garbles a frame has its lease re-queued at
     the front of the pending queue under a bumped epoch, so a late
     result from the old lease is dropped as stale. Re-solving is
     harmless: store writes are content-addressed. A job re-queued more
     than [max_requeues] times is answered with a typed error;
   - reads are idle-bounded: a client that goes silent is closed after
     [idle_timeout_s];
   - the journal is appended incrementally — the meta once, before the
     first completed obligation, then one record per completion — so a
     long-lived daemon retains no per-job state after the terminal frame;
   - [stop] (wired to SIGTERM/SIGINT by the CLI) drains: the listener
     closes, in-flight jobs reach their terminal frames, waiting workers
     are sent [drain], then [wait] returns. *)

module Json = Report.Json
module Journal = Report.Journal

(* Granularity of blocking-read timeouts: every accepted connection gets
   SO_RCVTIMEO = [tick], so its reader wakes every [tick] seconds to
   re-check its budget and the drain flag. *)
let tick = 0.25

(* ---- framed socket I/O, shared with lib/shard ---- *)

module Wire = struct
  let send_all fd s =
    let b = Bytes.of_string s in
    let n = Bytes.length b in
    let rec go off =
      if off < n then
        match Unix.write fd b off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
    in
    go 0

  let send_frame fd j = send_all fd (Json.to_string j ^ "\n")

  (* Frames whose failure must not unwind the job that emits them: the
     peer may vanish at any time, and with SIGPIPE ignored the write
     raises [EPIPE]/[ECONNRESET] instead of killing the process. The
     frame is dropped; the sender's accounting proceeds. *)
  let send_frame_safe fd j =
    try send_frame fd j with Unix.Unix_error _ -> ()

  type reader = {
    rfd : Unix.file_descr;
    rchunk : Bytes.t;
    mutable rbuf : string;
  }

  let reader fd = { rfd = fd; rchunk = Bytes.create 4096; rbuf = "" }

  (* One frame within [budget] seconds, spent one [tick] per read that
     timed out (a blocking socket passes [infinity]). Bytes arriving
     reset nothing: the budget is the caller's liveness contract and
     each call starts a new one. A read error other than EINTR is a dead
     peer, like EOF. *)
  let rec read_budget r budget =
    match String.index_opt r.rbuf '\n' with
    | Some i ->
      let l = String.sub r.rbuf 0 i in
      r.rbuf <- String.sub r.rbuf (i + 1) (String.length r.rbuf - i - 1);
      if String.trim l = "" then read_budget r budget
      else `Frame (Json.of_string l)
    | None when budget <= 0. -> `Silent
    | None -> (
        match Unix.read r.rfd r.rchunk 0 (Bytes.length r.rchunk) with
        | 0 -> `Eof
        | n ->
          r.rbuf <- r.rbuf ^ Bytes.sub_string r.rchunk 0 n;
          read_budget r budget
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
          read_budget r (budget -. tick)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_budget r budget
        | exception Unix.Unix_error _ -> `Eof)

  let read_frame r =
    match read_budget r infinity with
    | `Frame j -> Some j
    | `Silent | `Eof -> None
end

(* ---- telemetry ---- *)

let m_accepted = Telemetry.Counter.make "serve.accepted"
let m_rejected = Telemetry.Counter.make "serve.rejected"
let m_timeouts = Telemetry.Counter.make "serve.timeouts"
let m_completed = Telemetry.Counter.make "serve.completed"
let g_active = Telemetry.Gauge.make "serve.active_jobs"
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

(* Slack past a leased job's deadline before the daemon stops waiting on
   a still-heartbeating worker and answers the timeout itself. Workers
   enforce the deadline by cancellation, so this fires only when
   cancellation could not bite. *)
let lease_grace_s = 10.

(* ---- job specs ---- *)

type job_spec = {
  sj_design : string;
  sj_bug : string option;
  sj_check : string;          (* "fc" | "rb" | "sac" *)
  sj_depth : int;
  sj_certify : bool;
  sj_timeout_s : float option;  (* per-job override of the server default *)
}

let job_spec ?bug ?(check = "fc") ?(depth = 14) ?(certify = false)
    ?timeout_s design =
  {
    sj_design = design;
    sj_bug = bug;
    sj_check = check;
    sj_depth = depth;
    sj_certify = certify;
    sj_timeout_s = timeout_s;
  }

let json_of_job_spec s =
  Json.Obj
    [ ("op", Json.Str "submit");
      ("design", Json.Str s.sj_design);
      ("bug", match s.sj_bug with None -> Json.Null | Some b -> Json.Str b);
      ("check", Json.Str s.sj_check);
      ("depth", Json.Int s.sj_depth);
      ("certify", Json.Bool s.sj_certify);
      ( "timeout_s",
        match s.sj_timeout_s with None -> Json.Null | Some t -> Json.Float t
      ) ]

let job_spec_of_json j =
  let design = Json.str_or "" (Json.member "design" j) in
  if design = "" then failwith "submit: missing design";
  {
    sj_design = design;
    sj_bug = (match Json.member "bug" j with Json.Str b -> Some b | _ -> None);
    sj_check = Json.str_or "fc" (Json.member "check" j);
    sj_depth = Json.int_or 14 (Json.member "depth" j);
    sj_certify = Json.bool_or false (Json.member "certify" j);
    sj_timeout_s =
      (match Json.member "timeout_s" j with
       | Json.Float t -> Some t
       | Json.Int t -> Some (float_of_int t)
       | _ -> None);
  }

(* ---- solve and classify ---- *)

type outcome = [ `Done of Journal.obligation | `Timeout | `Error of string ]

(* The one solve path of both executors (the in-process daemon and a
   fleet worker): the batch path a direct CLI run uses (store +
   single-flight cache + certification), so verdict payloads are
   identical to [verify --journal] records. Whatever the solve throws
   becomes an outcome, so every job reaches exactly one terminal state.
   Returns the outcome and the seconds the solve took. *)
let solve ~span ~job ~pool ~cache ?store ~certify ~cancel (design, ob) =
  let t0 = Unix.gettimeofday () in
  let outcome : outcome =
    try
      Telemetry.Span.with_ span
        ~args:[ ("job", Telemetry.Int job); ("design", Telemetry.Str design) ]
      @@ fun () ->
      match
        Aqed.Check.run_batch ~pool ~cache ?store ~certify ~cancel [ ob ]
      with
      | { Aqed.Check.entries = [ e ]; _ } ->
        `Done
          (Journal.of_report ~design ~name:e.Aqed.Check.entry_name
             ~cached:e.Aqed.Check.entry_cached e.Aqed.Check.entry_report)
      | _ -> `Error "internal: batch returned no entry"
      | exception Sat.Solver.Cancelled -> `Timeout
      | exception Bmc.Engine.Certification_failed m ->
        `Error ("certification failed: " ^ m)
      | exception Failure m -> `Error m
    with e -> `Error ("uncaught: " ^ Printexc.to_string e)
  in
  (outcome, Unix.gettimeofday () -. t0)

(* ---- fleet configuration and counters (exported as [Fleet]) ---- *)

module Fleet_types = struct
  type config = {
    socket_path : string;
    validate : job_spec -> (unit, string) result;
    capacity : int;
    job_timeout_s : float;
    idle_timeout_s : float;
    heartbeat_grace_s : float;
    pending_grace_s : float;
    max_requeues : int;
    journal : (string * Journal.meta) option;
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
end

(* ---- server state ---- *)

type exec =
  | In_process of {
      resolve : job_spec -> (string * Aqed.Check.obligation, string) result;
      store : Store.t option;
      pool : Parallel.Pool.t;
      cache : Aqed.Check.cache;
    }
  | Fleet of Fleet_types.config

type lease = {
  l_worker : string;
  l_pid : int;
  l_started : float;
}

type jstate =
  | Running  (* in-process, solving on its admitting connection *)
  | Pending  (* fleet, waiting for a lease *)
  | Leased of lease

type job = {
  j_id : int;
  j_spec : job_spec;
  j_timeout_s : float;
  j_submitted : float;
  j_cancel : bool Atomic.t;  (* an in-process solve's cancel flag *)
  mutable j_epoch : int;     (* bumped on re-queue and on finalize, so a
                                result from a lost lease is recognizably
                                stale *)
  mutable j_state : jstate;
  mutable j_requeues : int;
  mutable j_terminal : (outcome * float) option;
      (* with its wall seconds; set exactly once, by [finalize_locked] *)
}

type server = {
  exec : exec;
  socket_path : string;
  capacity : int;
  job_timeout_s : float;
  idle_timeout_s : float;
  journal : (string * Journal.meta) option;
  listen_fd : Unix.file_descr;
  stop_flag : bool Atomic.t;
  wd_stop : bool Atomic.t;
  lock : Mutex.t;  (* guards every mutable field below and [cond] *)
  cond : Condition.t;  (* a job queued / re-queued / finalized, or a
                          watchdog tick during drain: lease-, drain-
                          and terminal-waiters re-check on wake *)
  jobs : (int, job) Hashtbl.t;  (* live (non-terminal) jobs only *)
  mutable pending : int list;  (* job ids, oldest first; re-queues are
                                  prepended so stolen work runs first *)
  mutable next_job : int;
  mutable active : int;  (* accepted, not yet finalized *)
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
  jlock : Mutex.t;  (* serializes journal appends, apart from [lock] so
                       disk I/O never blocks status frames *)
  mutable journal_started : bool;  (* meta record already appended *)
  mutable conns : Thread.t list;   (* live connection threads only:
                                      each prunes itself on exit *)
  mutable accept_th : Thread.t option;
  mutable watchdog_th : Thread.t option;
}

let locked srv f = Mutex.protect srv.lock f

(* ---- frames and counters ---- *)

let error_frame msg =
  Json.Obj [ ("frame", Json.Str "error"); ("message", Json.Str msg) ]

let busy_frame srv =
  let active, draining =
    locked srv (fun () -> (srv.active, Atomic.get srv.stop_flag))
  in
  Json.Obj
    [ ("frame", Json.Str "busy");
      ("active", Json.Int active);
      ("capacity", Json.Int srv.capacity);
      ("draining", Json.Bool draining) ]

let states_locked srv =
  Hashtbl.fold
    (fun _ j (p, l) ->
      match j.j_state with
      | Pending -> (p + 1, l)
      | Leased _ -> (p, l + 1)
      | Running -> (p, l))
    srv.jobs (0, 0)

let stats srv =
  locked srv @@ fun () ->
  let pending, leased = states_locked srv in
  {
    Fleet_types.st_pending = pending;
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

(* Ten keys in both modes; the fleet adds its own seven. In-process
   [queued] is the pool's backlog, fleet [queued] the pending queue. *)
let status_frame srv =
  locked srv @@ fun () ->
  let pending, leased = states_locked srv in
  let queued, fleet =
    match srv.exec with
    | In_process x -> (Parallel.Pool.queued x.pool, [])
    | Fleet _ ->
      ( pending,
        [ ("workers", Json.Int srv.workers_live);
          ("leased", Json.Int leased);
          ("leases", Json.Int srv.leases);
          ("steals", Json.Int srv.steals);
          ("requeued", Json.Int srv.requeued);
          ("worker_deaths", Json.Int srv.worker_deaths);
          ("stale_results", Json.Int srv.stale_results) ] )
  in
  Json.Obj
    ([ ("frame", Json.Str "status");
       ("active", Json.Int srv.active);
       ("queued", Json.Int queued);
       ("capacity", Json.Int srv.capacity);
       ("accepted", Json.Int srv.accepted);
       ("completed", Json.Int srv.completed);
       ("timeouts", Json.Int srv.timeouts);
       ("rejected", Json.Int srv.rejected);
       ("errors", Json.Int srv.errors);
       ("draining", Json.Bool (Atomic.get srv.stop_flag)) ]
     @ fleet)

let terminal_frame id = function
  | `Done oblig, wall ->
    Json.Obj
      [ ("frame", Json.Str "done");
        ("job", Json.Int id);
        ("wall_s", Json.Float wall);
        ("obligation", Journal.json_of_obligation oblig) ]
  | `Timeout, wall ->
    Json.Obj
      [ ("frame", Json.Str "timeout");
        ("job", Json.Int id);
        ("wall_s", Json.Float wall) ]
  | `Error msg, _ ->
    Json.Obj
      [ ("frame", Json.Str "error");
        ("job", Json.Int id);
        ("message", Json.Str msg) ]

(* ---- the lifecycle of one job ---- *)

(* An append failure is reported on stderr but never unwinds the job. *)
let journal_append srv oblig =
  match srv.journal with
  | None -> ()
  | Some (path, meta) ->
    Mutex.protect srv.jlock @@ fun () ->
    let records =
      if srv.journal_started then [ Journal.Obligation oblig ]
      else [ Journal.Meta meta; Journal.Obligation oblig ]
    in
    (match Journal.append path records with
     | () -> srv.journal_started <- true
     | exception Sys_error m ->
       Printf.eprintf "serve: journal append failed: %s\n%!" m)

(* Under [srv.lock]. Sets the terminal state exactly once, releasing the
   job's capacity slot before its client sees the terminal frame.
   Returns whether this call was the one that finalized. *)
let finalize_locked srv job term =
  Option.is_none job.j_terminal
  && begin
    job.j_terminal <- Some term;
    job.j_epoch <- job.j_epoch + 1;
    Hashtbl.remove srv.jobs job.j_id;
    srv.active <- srv.active - 1;
    Telemetry.Gauge.set g_active srv.active;
    (match fst term with
     | `Done _ ->
       srv.completed <- srv.completed + 1;
       Telemetry.Counter.incr m_completed
     | `Timeout ->
       srv.timeouts <- srv.timeouts + 1;
       Telemetry.Counter.incr m_timeouts
     | `Error _ -> srv.errors <- srv.errors + 1);
    Condition.broadcast srv.cond;
    true
  end

(* A completed obligation is journalled outside the lock, by whichever
   thread finalized it. *)
let journal_done srv = function
  | `Done oblig, _ -> journal_append srv oblig
  | (`Timeout | `Error _), _ -> ()

let finalize srv job term =
  if locked srv (fun () -> finalize_locked srv job term) then
    journal_done srv term

let await srv job =
  locked srv @@ fun () ->
  let rec go () =
    match job.j_terminal with
    | Some t -> t
    | None ->
      Condition.wait srv.cond srv.lock;
      go ()
  in
  go ()

(* Under [srv.lock]. Give a lost lease back to the queue — or, past the
   re-queue budget, fail the job with a typed error so one
   worker-killing obligation cannot cycle through the fleet forever. *)
let requeue_locked srv f job =
  if Option.is_none job.j_terminal then begin
    job.j_epoch <- job.j_epoch + 1;
    job.j_requeues <- job.j_requeues + 1;
    if job.j_requeues > f.Fleet_types.max_requeues then
      ignore
        (finalize_locked srv job
           ( `Error
               (Printf.sprintf
                  "job failed on %d workers (crashed or silent); giving up"
                  job.j_requeues),
             0. ))
    else begin
      job.j_state <- Pending;
      srv.pending <- job.j_id :: srv.pending;
      srv.requeued <- srv.requeued + 1;
      Telemetry.Counter.incr m_requeued;
      Telemetry.Gauge.set g_pending (List.length srv.pending);
      Condition.broadcast srv.cond
    end
  end

(* ---- client requests ---- *)

(* One client request, or [None] on EOF, idle timeout or drain; the idle
   budget restarts with every frame. A malformed line raises
   [Json.Parse_error]. *)
let recv_request srv r =
  let rec go left =
    if Atomic.get srv.stop_flag || left <= 0. then None
    else
      match Wire.read_budget r tick with
      | `Frame j -> Some j
      | `Eof -> None
      | `Silent -> go (left -. tick)
  in
  go srv.idle_timeout_s

let admit srv spec ~queue =
  locked srv @@ fun () ->
  if Atomic.get srv.stop_flag || srv.active >= srv.capacity then begin
    srv.rejected <- srv.rejected + 1;
    None
  end
  else begin
    srv.next_job <- srv.next_job + 1;
    srv.active <- srv.active + 1;
    srv.accepted <- srv.accepted + 1;
    Telemetry.Gauge.set g_active srv.active;
    let job =
      {
        j_id = srv.next_job;
        j_spec = spec;
        j_timeout_s = Option.value spec.sj_timeout_s ~default:srv.job_timeout_s;
        j_submitted = Unix.gettimeofday ();
        j_cancel = Atomic.make false;
        j_epoch = 0;
        j_state = (if queue then Pending else Running);
        j_requeues = 0;
        j_terminal = None;
      }
    in
    Hashtbl.replace srv.jobs job.j_id job;
    if queue then begin
      srv.pending <- srv.pending @ [ job.j_id ];
      Telemetry.Gauge.set g_pending (List.length srv.pending);
      Condition.broadcast srv.cond
    end;
    Some job
  end

(* [`Continue] keeps the connection open for the next request; [`Close]
   tears it down (protocol violations only — typed rejections like [busy]
   keep the connection). *)
let handle_submit srv fd j =
  match job_spec_of_json j with
  | exception (Failure m | Json.Parse_error m) ->
    Wire.send_frame fd (error_frame ("bad submit: " ^ m));
    `Close
  | spec -> (
      (* In-process, the job resolves to an obligation now and is solved
         below on this thread — no hand-off, no queue. A fleet job is
         only validated; the worker that leases it resolves its own. *)
      let run =
        match srv.exec with
        | In_process x ->
          Result.map
            (fun ob ->
              Some
                (fun job ->
                  solve ~span:"serve.job" ~job:job.j_id ~pool:x.pool
                    ~cache:x.cache ?store:x.store ~certify:spec.sj_certify
                    ~cancel:job.j_cancel ob))
            (x.resolve spec)
        | Fleet f -> Result.map (fun () -> None) (f.Fleet_types.validate spec)
      in
      match run with
      | Error m ->
        Wire.send_frame fd (error_frame m);
        `Close
      | Ok run ->
        (match admit srv spec ~queue:(Option.is_none run) with
         | None ->
           Telemetry.Counter.incr m_rejected;
           Wire.send_frame fd (busy_frame srv)
         | Some job ->
           Telemetry.Counter.incr m_accepted;
           (* Admitted: even if this client already vanished, the job
              runs to a terminal state and accounting holds — the frame
              writes are drop-safe. *)
           Wire.send_frame_safe fd
             (Json.Obj
                [ ("frame", Json.Str "accepted"); ("job", Json.Int job.j_id) ]);
           Option.iter (fun run -> finalize srv job (run job)) run;
           Wire.send_frame_safe fd (terminal_frame job.j_id (await srv job)));
        `Continue)

(* ---- fleet leases ---- *)

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
        | Some ({ j_state = Pending; _ } as job) -> Some job
        | _ -> pop () (* finalized while queued (pending grace) *))
  in
  let rec go () =
    match pop () with
    | Some job ->
      job.j_state <-
        Leased
          { l_worker = worker; l_pid = pid; l_started = Unix.gettimeofday () };
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
        (* Woken by a submit, a re-queue, a finalize, or — during a
           drain, which may begin in a signal handler where broadcasting
           is unsafe — the watchdog tick. *)
        Condition.wait srv.cond srv.lock;
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
      ("spec", json_of_job_spec job.j_spec) ]

(* A result frame from a worker. Epoch-checked under the lock: a result
   for a re-queued or already-finalized lease is dropped (the solve it
   reports was re-run or superseded). *)
let handle_result srv j =
  let id = Json.int_or (-1) (Json.member "job" j) in
  let epoch = Json.int_or (-1) (Json.member "epoch" j) in
  let wall = Json.float_or 0. (Json.member "wall_s" j) in
  (* Parsed outside the lock; a malformed obligation payload fails the
     job rather than poisoning the daemon. *)
  let outcome =
    match Json.str_or "" (Json.member "outcome" j) with
    | "done" -> (
        match Journal.obligation_of_json (Json.member "obligation" j) with
        | oblig -> `Done oblig
        | exception _ -> `Error "worker sent a malformed result payload")
    | "timeout" -> `Timeout
    | _ -> (
        match Json.str_or "" (Json.member "message" j) with
        | "" -> `Error "worker error"
        | m -> `Error m)
  in
  let finalized =
    locked srv (fun () ->
        match Hashtbl.find_opt srv.jobs id with
        | Some job when job.j_epoch = epoch ->
          finalize_locked srv job (outcome, wall)
        | _ ->
          srv.stale_results <- srv.stale_results + 1;
          Telemetry.Counter.incr m_stale_results;
          false)
  in
  if finalized then journal_done srv (outcome, wall)

(* One worker connection: serve leases until the fleet drains or the
   worker dies. The first [lease] op was consumed by the dispatcher. *)
let handle_worker srv f fd r ~worker ~pid =
  let gauge = worker_gauge worker in
  locked srv (fun () ->
      srv.workers_live <- srv.workers_live + 1;
      Telemetry.Gauge.set g_workers srv.workers_live);
  (* A garbled frame from a worker is a broken peer, like EOF. *)
  let read () =
    try Wire.read_budget r f.Fleet_types.heartbeat_grace_s
    with Json.Parse_error _ -> `Eof
  in
  let dead_with job_opt =
    locked srv (fun () ->
        srv.worker_deaths <- srv.worker_deaths + 1;
        Telemetry.Counter.incr m_worker_deaths;
        match job_opt with
        | Some (job, epoch) when job.j_epoch = epoch -> requeue_locked srv f job
        | _ -> ())
  in
  (* Wait for the worker's terminal frame on [job]: heartbeats within the
     grace keep the lease alive; silence or EOF loses it. Returns whether
     the worker answered. *)
  let rec await_result (job, epoch) =
    match read () with
    | `Eof | `Silent ->
      dead_with (Some (job, epoch));
      false
    | `Frame j -> (
        match Json.str_or "" (Json.member "op" j) with
        | "result" ->
          handle_result srv j;
          true
        | _ -> await_result (job, epoch))
  in
  (* The next lease op follows a result within microseconds; silence
     here means the worker died between the two. A heartbeat that raced
     its own result is skipped, not taken for a broken peer. *)
  let rec await_lease () =
    match read () with
    | `Frame j -> (
        match Json.str_or "" (Json.member "op" j) with
        | "lease" -> true
        | "heartbeat" -> await_lease ()
        | _ ->
          dead_with None;
          false)
    | `Eof | `Silent ->
      dead_with None;
      false
  in
  let rec serve_lease () =
    match next_job srv ~worker ~pid with
    | `Drain -> Wire.send_frame_safe fd (Json.Obj [ ("frame", Json.Str "drain") ])
    | `Job (job, epoch) -> (
        Telemetry.Gauge.set gauge 1;
        match Wire.send_frame fd (job_frame job epoch) with
        | () ->
          let answered = await_result (job, epoch) in
          Telemetry.Gauge.set gauge 0;
          if answered && await_lease () then serve_lease ()
        | exception Unix.Unix_error _ ->
          (* The worker vanished between its lease and our job frame: the
             job was never seen by anyone — requeue. *)
          Telemetry.Gauge.set gauge 0;
          dead_with (Some (job, epoch)))
  in
  serve_lease ();
  locked srv (fun () ->
      srv.workers_live <- srv.workers_live - 1;
      Telemetry.Gauge.set g_workers srv.workers_live)

(* ---- connections ---- *)

let handle_conn srv fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO tick;
  let r = Wire.reader fd in
  let rec loop () =
    match recv_request srv r with
    | None -> ()
    | exception Json.Parse_error m ->
      (* Crash isolation: a malformed line poisons this connection only.
         Reply typed, then close. *)
      Wire.send_frame fd (error_frame ("parse error: " ^ m))
    | Some j -> (
        match (Json.str_or "" (Json.member "op" j), srv.exec) with
        | "status", _ ->
          Wire.send_frame fd (status_frame srv);
          loop ()
        | "submit", _ -> (
            match handle_submit srv fd j with
            | `Continue -> loop ()
            | `Close -> ())
        | "lease", Fleet f ->
          (* This connection is a worker from here on. *)
          let worker =
            match Json.str_or "" (Json.member "worker" j) with
            | "" -> "anonymous"
            | w -> w
          in
          handle_worker srv f fd r ~worker
            ~pid:(Json.int_or 0 (Json.member "pid" j))
        | op, _ ->
          Wire.send_frame fd (error_frame (Printf.sprintf "unknown op %S" op)))
  in
  (try loop () with _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  (* Self-prune: a long-lived daemon must not retain one Thread.t per
     connection ever accepted. If the acceptor has not registered this
     thread yet (create/registration race) the handle stays until drain,
     where joining an already-finished thread returns immediately. *)
  let self = Thread.id (Thread.self ()) in
  locked srv (fun () ->
      srv.conns <- List.filter (fun t -> Thread.id t <> self) srv.conns)

(* ---- lifecycle ---- *)

(* Every 50 ms: cancel in-process solves past their deadline, answer
   fleet leases that overran deadline + [lease_grace_s] with a timeout,
   fail jobs pending with no fleet attached, and, once a drain has
   begun, wake every waiter (a drain begun from a signal handler cannot
   broadcast, so this tick is what delivers it). *)
let watchdog srv () =
  while not (Atomic.get srv.wd_stop) do
    let now = Unix.gettimeofday () in
    locked srv (fun () ->
        let overdue = ref [] in
        Hashtbl.iter
          (fun _ job ->
            match (job.j_state, srv.exec) with
            | Running, _ ->
              if now >= job.j_submitted +. job.j_timeout_s then
                Atomic.set job.j_cancel true
            | Leased l, _
              when now > l.l_started +. job.j_timeout_s +. lease_grace_s ->
              overdue := (job, (`Timeout, now -. l.l_started)) :: !overdue
            | Pending, Fleet f
              when srv.workers_live = 0
                   && now > job.j_submitted +. f.Fleet_types.pending_grace_s ->
              overdue :=
                (job, (`Error "no worker joined the fleet in time", 0.))
                :: !overdue
            | _ -> ())
          srv.jobs;
        List.iter
          (fun (job, term) -> ignore (finalize_locked srv job term))
          !overdue;
        if Atomic.get srv.stop_flag then Condition.broadcast srv.cond);
    Thread.delay 0.05
  done

let accept_loop srv () =
  while not (Atomic.get srv.stop_flag) do
    match Unix.select [ srv.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ -> (
        match Unix.accept srv.listen_fd with
        | fd, _ ->
          let th = Thread.create (handle_conn srv) fd in
          locked srv (fun () -> srv.conns <- th :: srv.conns)
        | exception Unix.Unix_error _ -> ())
    | exception Unix.Unix_error _ -> ()
  done

(* Binds the socket first, so a bind failure leaks no pool: [exec] is
   only built once the daemon can run. *)
let start_daemon ~socket_path ~capacity ~job_timeout_s ~idle_timeout_s
    ~journal exec =
  (* A client that disconnects mid-job must not take the daemon with it:
     with the default disposition, the next frame write to its socket
     raises SIGPIPE and kills the whole process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
     Unix.listen listen_fd 16
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     raise e);
  let srv =
    {
      exec = exec ();
      socket_path;
      capacity = max 1 capacity;
      job_timeout_s;
      idle_timeout_s;
      journal;
      listen_fd;
      stop_flag = Atomic.make false;
      wd_stop = Atomic.make false;
      lock = Mutex.create ();
      cond = Condition.create ();
      jobs = Hashtbl.create 64;
      pending = [];
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

(* Begin the drain. Only flips an atomic, so it is safe from a signal
   handler (the CLI wires SIGTERM/SIGINT here). *)
let stop srv = Atomic.set srv.stop_flag true

let drain srv =
  Option.iter Thread.join srv.accept_th;
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink srv.socket_path with Unix.Unix_error _ -> ());
  (* The acceptor has stopped, so no new entries land in [conns]. Client
     connections exit after their terminal frames, once the request read
     sees the drain flag; worker connections exit once every accepted job
     is terminal (the watchdog guarantees that even with the whole fleet
     dead). Threads prune themselves on exit, so this snapshot covers
     every still-running connection. The watchdog must outlive them: its
     tick is what wakes drain-waiters. *)
  List.iter Thread.join (locked srv (fun () -> srv.conns));
  Atomic.set srv.wd_stop true;
  Option.iter Thread.join srv.watchdog_th;
  match srv.exec with
  | In_process x -> Parallel.Pool.shutdown x.pool
  | Fleet _ -> ()

(* ---- the in-process executor ---- *)

type config = {
  socket_path : string;
  resolve : job_spec -> (string * Aqed.Check.obligation, string) result;
      (* job -> (design label, prepared-able obligation); the CLI builds
         this from its design registry so the service library stays
         registry-agnostic *)
  store : Store.t option;
  workers : int;
  capacity : int;
  job_timeout_s : float;
  idle_timeout_s : float;
  journal : (string * Journal.meta) option;
}

let config ?store ?workers ?(capacity = 32) ?(job_timeout_s = 300.)
    ?(idle_timeout_s = 30.) ?journal ~resolve socket_path =
  {
    socket_path;
    resolve;
    store;
    workers =
      (match workers with
       | Some w -> max 1 w
       | None -> Parallel.Pool.default_workers ());
    capacity = max 1 capacity;
    job_timeout_s;
    idle_timeout_s;
    journal;
  }

type summary = {
  sm_accepted : int;
  sm_completed : int;
  sm_timeouts : int;
  sm_rejected : int;
  sm_errors : int;
}

let start (cfg : config) =
  start_daemon ~socket_path:cfg.socket_path ~capacity:cfg.capacity
    ~job_timeout_s:cfg.job_timeout_s ~idle_timeout_s:cfg.idle_timeout_s
    ~journal:cfg.journal (fun () ->
      In_process
        {
          resolve = cfg.resolve;
          store = cfg.store;
          pool = Parallel.Pool.create ~workers:cfg.workers ();
          cache = Aqed.Check.create_cache ();
        })

let wait srv =
  drain srv;
  locked srv (fun () ->
      {
        sm_accepted = srv.accepted;
        sm_completed = srv.completed;
        sm_timeouts = srv.timeouts;
        sm_rejected = srv.rejected;
        sm_errors = srv.errors;
      })

(* ---- the fleet executor ---- *)

module Fleet = struct
  include Fleet_types

  let config ?(validate = fun _ -> Ok ()) ?(capacity = 32)
      ?(job_timeout_s = 300.) ?(idle_timeout_s = 30.)
      ?(heartbeat_grace_s = 5.) ?(pending_grace_s = 60.) ?(max_requeues = 3)
      ?journal socket_path =
    {
      socket_path;
      validate;
      capacity = max 1 capacity;
      job_timeout_s;
      idle_timeout_s;
      heartbeat_grace_s;
      pending_grace_s;
      max_requeues = max 0 max_requeues;
      journal;
    }

  type t = server

  let start cfg =
    start_daemon ~socket_path:cfg.socket_path ~capacity:cfg.capacity
      ~job_timeout_s:cfg.job_timeout_s ~idle_timeout_s:cfg.idle_timeout_s
      ~journal:cfg.journal (fun () -> Fleet cfg)

  let stop = stop

  let wait srv =
    drain srv;
    stats srv

  let stats = stats

  let leases srv =
    locked srv (fun () ->
        Hashtbl.fold
          (fun _ j acc ->
            match j.j_state with
            | Leased l ->
              {
                lv_job = j.j_id;
                lv_design = j.j_spec.sj_design;
                lv_worker = l.l_worker;
                lv_pid = l.l_pid;
              }
              :: acc
            | Running | Pending -> acc)
          srv.jobs [])
end

(* ---- client ---- *)

module Client = struct
  type t = {
    fd : Unix.file_descr;
    r : Wire.reader;
  }

  let connect path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try Unix.connect fd (Unix.ADDR_UNIX path)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       raise e);
    { fd; r = Wire.reader fd }

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

  let send t j = Wire.send_frame t.fd j

  (* Blocking: the server always answers a request with at least one
     frame, and a drain completes in-flight jobs before closing. *)
  let recv t =
    match Wire.read_frame t.r with
    | Some j -> j
    | None -> failwith "serve: connection closed by server"

  type outcome =
    | Completed of int * float * Journal.obligation
        (** job id, server-side wall seconds, the verdict record *)
    | Timed_out of int * float
    | Busy of int * int  (** active, capacity *)
    | Refused of string

  let submit t spec =
    send t (json_of_job_spec spec);
    let rec next () =
      let j = recv t in
      match Json.str_or "" (Json.member "frame" j) with
      | "accepted" -> next ()
      | "done" ->
        Completed
          ( Json.int_or 0 (Json.member "job" j),
            Json.float_or 0. (Json.member "wall_s" j),
            Journal.obligation_of_json (Json.member "obligation" j) )
      | "timeout" ->
        Timed_out
          ( Json.int_or 0 (Json.member "job" j),
            Json.float_or 0. (Json.member "wall_s" j) )
      | "busy" ->
        Busy
          ( Json.int_or 0 (Json.member "active" j),
            Json.int_or 0 (Json.member "capacity" j) )
      | "error" -> Refused (Json.str_or "" (Json.member "message" j))
      | f -> Refused (Printf.sprintf "unexpected frame %S" f)
    in
    next ()

  let status t =
    send t (Json.Obj [ ("op", Json.Str "status") ]);
    recv t
end

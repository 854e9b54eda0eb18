(** Sharded multi-process verification behind [aqed_cli serve].

    A {!Coordinator} owns the service socket and dispatches accepted jobs
    at the *obligation* level to worker processes; a {!Worker} is a thin
    lease loop over {!Aqed.Check.run_batch} with its own domain pool,
    sharing one on-disk {!Store.t} with the rest of the fleet (the
    store's tmp-then-rename + revalidation discipline, plus its advisory
    gc lock, make cross-process sharing safe).

    The client-facing protocol is byte-identical to the single-process
    daemon's ({!Serve}): [submit]/[status] requests, [accepted]/[done]/
    [timeout]/[error]/[busy]/[status] frames — [aqed_cli submit] cannot
    tell a coordinator from a daemon. The coordinator↔worker wire reuses
    the same JSONL framing ({!Serve.Wire}) with three more ops:

    - [{"op":"lease","worker":W,"pid":P}] — an idle worker asks for
      work and blocks; the coordinator answers with a
      [{"frame":"job",...}] carrying the submit spec, the job id, a
      lease epoch and the deadline, or [{"frame":"drain"}] when the
      fleet is shutting down. Work-stealing falls out of this shape:
      whichever worker goes idle first takes the oldest pending job,
      including jobs re-queued from a dead peer.
    - [{"op":"heartbeat","job":N,"epoch":E}] — sent periodically while
      the worker is solving; silence beyond the heartbeat grace means
      the worker is presumed dead and its lease is re-queued.
    - [{"op":"result","job":N,"epoch":E,"outcome":...}] — the terminal
      outcome; a [done] outcome carries the journal obligation record,
      byte-identical to a direct [verify --journal] record.

    Re-queue invariant: every accepted job reaches exactly one terminal
    frame and is counted in exactly one of completed/timeouts/errors,
    whatever workers do. A worker that crashes mid-job (EOF on its
    connection), goes silent past the heartbeat grace, or overruns its
    lease deadline has the job re-queued under a bumped lease epoch; a
    late result from the old lease is recognized by its stale epoch and
    dropped. Re-running a re-queued obligation is harmless — effects are
    at-most-once because the store's writes are content-addressed (a
    duplicate solve re-derives the same certified entry). A job
    re-queued more than [max_requeues] times, or pending with no worker
    connected past the pending grace, is answered with a typed error
    frame rather than hanging its client forever. *)

(** {1 Coordinator} *)

module Coordinator : sig
  type config = {
    socket_path : string;
    validate : Serve.job_spec -> (unit, string) result;
        (** admission-time sanity check (e.g. the CLI rejecting unknown
            designs with a typed error before any worker sees the job);
            the coordinator itself never builds obligations *)
    capacity : int;          (** max accepted-but-unfinished jobs *)
    job_timeout_s : float;   (** default per-job wall-clock deadline,
                                 enforced by the leasing worker *)
    idle_timeout_s : float;  (** silent client-connection read timeout *)
    heartbeat_grace_s : float;
        (** worker silence (no heartbeat, no result) beyond which a
            leased job is re-queued and the worker presumed dead *)
    lease_grace_s : float;
        (** slack past the job deadline before the coordinator declares
            a still-heartbeating lease lost and answers timeout itself *)
    pending_grace_s : float;
        (** how long a pending job may wait with no worker connected
            before it is answered with a typed error *)
    max_requeues : int;
        (** re-queues per job before it is answered with a typed error
            (a job that kills every worker it lands on must not cycle
            through the fleet forever) *)
    journal : (string * Report.Journal.meta) option;
        (** appended incrementally, meta first, as results arrive *)
  }

  val config :
    ?validate:(Serve.job_spec -> (unit, string) result) ->
    ?capacity:int -> ?job_timeout_s:float -> ?idle_timeout_s:float ->
    ?heartbeat_grace_s:float -> ?lease_grace_s:float ->
    ?pending_grace_s:float -> ?max_requeues:int ->
    ?journal:(string * Report.Journal.meta) -> string -> config
  (** [config socket_path]. Defaults: accept every spec, capacity 32,
      300 s job timeout, 30 s idle timeout, 5 s heartbeat grace, 10 s
      lease grace, 60 s pending grace, 3 re-queues, no journal. *)

  type stats = {
    st_pending : int;        (** accepted, waiting for a lease *)
    st_leased : int;         (** leased to a worker right now *)
    st_workers : int;        (** worker connections live right now *)
    st_accepted : int;
    st_completed : int;
    st_timeouts : int;
    st_rejected : int;
    st_errors : int;
    st_leases : int;         (** job frames handed to workers *)
    st_steals : int;         (** leases of a re-queued job — work stolen
                                 from a dead or silent peer *)
    st_requeued : int;
    st_worker_deaths : int;
    st_stale_results : int;  (** results dropped for a stale epoch *)
  }

  type lease_view = {
    lv_job : int;
    lv_design : string;
    lv_worker : string;
    lv_pid : int;  (** worker's os pid, as reported in its lease op *)
  }

  type t

  val start : config -> t
  (** Binds the socket (unlinking a stale one), spawns the acceptor and
      the watchdog, returns immediately. Ignores SIGPIPE process-wide,
      like {!Serve.start}. *)

  val stop : t -> unit
  (** Begin the drain: stop accepting submits, let leased and pending
      jobs reach their terminal frames, then send [drain] to every
      waiting worker. Only flips an atomic — signal-handler safe. *)

  val wait : t -> stats
  (** Blocks until the drain completes and every connection thread is
      joined; returns lifetime totals. Exactly
      [st_accepted = st_completed + st_timeouts + st_errors] holds
      fleet-wide. Call {!stop} first (or from a signal handler). *)

  val stats : t -> stats
  (** A live snapshot, for tests and the bench harness. *)

  val leases : t -> lease_view list
  (** Current leases — the bench crash leg uses this to find which
      worker pid to kill. *)
end

(** {1 Worker} *)

module Worker : sig
  type config = {
    socket_path : string;
    name : string;
    resolve : Serve.job_spec -> (string * Aqed.Check.obligation, string) result;
        (** same contract as {!Serve.config}'s resolve: map a wire spec
            onto (design label, prepared-able obligation). [Error]
            becomes a typed error result for the submitting client. *)
    store : Store.t option;  (** the fleet-shared verdict store *)
    pool_workers : int;      (** width of this worker's domain pool *)
    heartbeat_s : float;
        (** heartbeat period while solving, floored at 0.05 s. One ticker
            thread per worker sends the heartbeats and enforces the job
            deadline; it is off the result path — a result is sent as
            soon as the solve returns, never after a timer — and no
            heartbeat for a lease follows that lease's result frame. *)
    connect_timeout_s : float;
        (** how long to retry connecting — a worker may be spawned
            before the coordinator has bound its socket *)
  }

  val config :
    ?name:string -> ?store:Store.t -> ?pool_workers:int ->
    ?heartbeat_s:float -> ?connect_timeout_s:float ->
    resolve:(Serve.job_spec -> (string * Aqed.Check.obligation, string) result) ->
    string -> config
  (** [config ~resolve socket_path]. Defaults: name ["w<pid>"], no
      store, pool width 1, 1 s heartbeat (at least 0.05 s), 30 s connect
      retry budget. *)

  type summary = {
    wk_leases : int;
    wk_completed : int;
    wk_timeouts : int;
    wk_errors : int;
  }

  val run : config -> summary
  (** Connect (with retry), then loop: lease, resolve the spec,
      solve through {!Aqed.Check.run_batch} on this worker's own pool
      (store-mediated when a store is given), report the result, lease
      again — until the coordinator sends [drain] or its socket closes.

      One ticker thread lives as long as [run]: while a resolved job is
      registered with it, it heartbeats that lease every [heartbeat_s]
      and cancels the solve at the job's deadline. The lease is
      registered only after the spec resolves (a hung resolve is
      heartbeat silence, so the coordinator re-queues it) and cleared
      as soon as [run_batch] returns, under the same lock as every
      socket write; the result frame follows at once, and no heartbeat
      for that lease can come after it. The reported [wall_s] covers
      [run_batch] only. The ticker is stopped and joined once, when
      [run] returns.

      Per-job deadlines are enforced worker-side through the solver's
      cooperative cancellation, exactly like the daemon's
      ({!Sat.Solver.Cancelled} becomes a [timeout] result; the pool
      survives). Raises [Failure] when the coordinator cannot be
      reached within [connect_timeout_s]. *)
end

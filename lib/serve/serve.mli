(** The verification service daemon behind [aqed_cli serve].

    One long-running process that admits solve jobs over a Unix-domain
    socket, bounds them, times them out, journals them and drains them.
    How an admitted job runs is chosen by how the daemon is configured —
    its executor:

    - in-process ({!config}, {!start}): the daemon owns one
      {!Parallel.Pool}, one obligation cache and (optionally) one
      persistent verdict {!Store.t}, and the connection thread that
      admitted a job solves it on that pool;
    - fleet ({!Fleet}): the daemon builds no obligation and creates no
      pool; admitted jobs wait on a pending queue and are leased to
      worker processes ({!Shard.Worker}) over the same socket.

    The wire protocol is JSONL in both directions, printed and parsed
    with {!Report.Json}; the verdict payload of a completed job is
    byte-identical to a journal obligation record
    ({!Report.Journal.json_of_obligation}), so service results diff
    cleanly against direct [verify --journal] runs. Clients speak the
    same protocol to both executors; only the [status] frame differs —
    the fleet adds seven fleet counters to the ten common keys.

    Robustness: bounded admission (typed [busy] frame at capacity),
    per-job wall-clock deadlines enforced through the solver's
    cooperative cancellation ({!Sat.Solver.Cancelled} becomes a typed
    [timeout] frame; the worker pool survives), per-connection crash
    isolation (a malformed line gets a typed [error] frame and closes
    that connection only; a client that disconnects mid-job costs
    nothing — SIGPIPE is ignored, the failed frame writes are dropped
    and the job still runs to a terminal state), idle-client read
    timeouts, incremental journal appends (one record per completed job;
    no per-job state retained), and graceful drain: {!stop} (wired to
    SIGTERM/SIGINT by the CLI) stops accepting, in-flight jobs finish
    and stream their frames, {!wait} returns. *)

(** {1 Wire framing}

    Newline-framed {!Report.Json} values over a connected socket — the
    lowest layer of the protocol, shared by the daemon, its {!Client} and
    the fleet worker (lib/shard). *)

module Wire : sig
  val send_frame : Unix.file_descr -> Report.Json.t -> unit
  (** One JSON value, newline-terminated. Raises [Unix.Unix_error] on a
      dead peer. *)

  val send_frame_safe : Unix.file_descr -> Report.Json.t -> unit
  (** Like {!send_frame} but drops the frame on any [Unix.Unix_error] —
      for frames whose failure must not unwind the sender (the peer may
      vanish at any time; SIGPIPE is ignored by {!start}). *)

  type reader
  (** Buffered line reader over one socket. *)

  val reader : Unix.file_descr -> reader

  val read_frame : reader -> Report.Json.t option
  (** One frame, blocking; skips blank lines; [None] on EOF or a dead
      peer. Raises [Report.Json.Parse_error] on a malformed line. The
      daemon's own connections use the same reader with a read budget
      (idle timeout, heartbeat grace) — one line reader for the whole
      service. *)
end

(** {1 Job specs} *)

type job_spec = {
  sj_design : string;           (** registry name, e.g. ["aes"] *)
  sj_bug : string option;       (** bug to inject, as in [check -b] *)
  sj_check : string;            (** ["fc"], ["rb"] or ["sac"] *)
  sj_depth : int;               (** BMC bound *)
  sj_certify : bool;
  sj_timeout_s : float option;  (** per-job override of the server's
                                    default deadline *)
}

val job_spec :
  ?bug:string -> ?check:string -> ?depth:int -> ?certify:bool ->
  ?timeout_s:float -> string -> job_spec
(** [job_spec design] with the CLI defaults: ["fc"], depth 14, no
    certification, the server's default timeout. *)

val json_of_job_spec : job_spec -> Report.Json.t
val job_spec_of_json : Report.Json.t -> job_spec
(** Wire codec for submit requests. [job_spec_of_json] raises [Failure]
    on a missing design and tolerates absent optional fields. *)

(** {1 Solving one job} *)

type outcome = [ `Done of Report.Journal.obligation | `Timeout | `Error of string ]

val solve :
  span:string -> job:int -> pool:Parallel.Pool.t -> cache:Aqed.Check.cache ->
  ?store:Store.t -> certify:bool -> cancel:bool Atomic.t ->
  string * Aqed.Check.obligation -> outcome * float
(** [solve ~span ~job ... (design, ob)] runs one resolved job through
    {!Aqed.Check.run_batch} — the exact path a direct CLI run takes —
    inside a telemetry span named [span], and classifies it:
    {!Sat.Solver.Cancelled} is [`Timeout], certification failures,
    [Failure] and any other exception are [`Error]. Never raises. Returns
    the outcome and the seconds the solve took. Shared by the in-process
    executor and the fleet worker. *)

(** {1 In-process server} *)

type config = {
  socket_path : string;
  resolve : job_spec -> (string * Aqed.Check.obligation, string) result;
      (** maps a job to its (design label, prepared-able obligation); the
          CLI builds this from its design registry, tests from whatever
          toy designs they like — the service itself is registry-agnostic.
          [Error] becomes a typed [error] frame for the client. *)
  store : Store.t option;       (** shared persistent verdict store *)
  workers : int;                (** pool width *)
  capacity : int;               (** max accepted-but-unfinished jobs *)
  job_timeout_s : float;        (** default per-job wall-clock deadline *)
  idle_timeout_s : float;       (** silent-connection read timeout *)
  journal : (string * Report.Journal.meta) option;
      (** appended incrementally: the meta once, before the first
          completed obligation, then one record per completion — the
          meta heads the run so multi-run journal grouping stays
          well-formed, and the daemon holds no per-job state *)
}

val config :
  ?store:Store.t -> ?workers:int -> ?capacity:int -> ?job_timeout_s:float ->
  ?idle_timeout_s:float -> ?journal:(string * Report.Journal.meta) ->
  resolve:(job_spec -> (string * Aqed.Check.obligation, string) result) ->
  string -> config
(** [config ~resolve socket_path]. Defaults: no store,
    {!Parallel.Pool.default_workers}, capacity 32, 300 s job timeout,
    30 s idle timeout, no journal. *)

type summary = {
  sm_accepted : int;
  sm_completed : int;
  sm_timeouts : int;
  sm_rejected : int;
  sm_errors : int;
}
(** Lifetime totals, returned by {!wait}. Every accepted job is accounted
    in exactly one of [completed]/[timeouts]/[errors]. *)

type server

val start : config -> server
(** Starts the daemon with the in-process executor: binds the socket
    (unlinking a stale one), creates the pool, spawns the acceptor and
    the watchdog, and returns immediately. Also ignores SIGPIPE
    process-wide so a client disconnect surfaces as [EPIPE] on the write
    instead of killing the daemon. Raises [Unix.Unix_error] when the
    socket cannot be bound. *)

val stop : server -> unit
(** Begins the drain: stop accepting, let in-flight jobs finish. Only
    flips an atomic, so it is safe from a signal handler. Idempotent. *)

val wait : server -> summary
(** Blocks until the drain completes: joins the acceptor, every live
    connection thread and the watchdog, shuts the pool down (in-process),
    removes the socket file (journal records were already appended as
    jobs completed). Call {!stop} first (or from a signal handler /
    another thread) — [wait] alone never returns. Works for a daemon of
    either executor. *)

(** {1 Fleet executor}

    The same daemon, with admitted jobs leased at the obligation level to
    worker processes ({!Shard.Worker}, re-exported with this module as
    [Shard.Coordinator]). Workers speak three more ops on the client
    socket:

    - [{"op":"lease","worker":W,"pid":P}] — an idle worker asks for work
      and blocks; the daemon answers with a [{"frame":"job",...}]
      carrying the submit spec, the job id, a lease epoch and the
      deadline, or [{"frame":"drain"}] when the fleet is shutting down.
      Work-stealing falls out of this shape: whichever worker goes idle
      first takes the oldest pending job, including jobs re-queued from a
      dead peer.
    - [{"op":"heartbeat","job":N,"epoch":E}] — sent periodically while
      the worker is solving; silence beyond the heartbeat grace means the
      worker is presumed dead and its lease is re-queued.
    - [{"op":"result","job":N,"epoch":E,"outcome":...}] — the terminal
      outcome; a [done] outcome carries the journal obligation record.

    A [lease] op sent to an in-process daemon is answered [unknown op].

    Re-queue invariant: every accepted job reaches exactly one terminal
    frame and is counted in exactly one of completed/timeouts/errors,
    whatever workers do. A worker that crashes mid-job (EOF), goes silent
    past the heartbeat grace, or garbles a frame has its job re-queued
    under a bumped lease epoch; a late result from the old lease is
    recognized by its stale epoch and dropped. Re-running a re-queued
    obligation is harmless — store writes are content-addressed. A job
    re-queued more than [max_requeues] times, or pending with no worker
    connected past the pending grace, is answered with a typed error
    frame rather than hanging its client forever. A lease that
    overruns its deadline by 10 s while still heartbeating is answered
    as a timeout by the daemon itself. *)

module Fleet : sig
  type config = {
    socket_path : string;
    validate : job_spec -> (unit, string) result;
        (** admission-time sanity check (e.g. the CLI rejecting unknown
            designs with a typed error before any worker sees the job);
            the fleet daemon itself never builds obligations *)
    capacity : int;          (** max accepted-but-unfinished jobs *)
    job_timeout_s : float;   (** default per-job wall-clock deadline,
                                 enforced by the leasing worker *)
    idle_timeout_s : float;  (** silent client-connection read timeout *)
    heartbeat_grace_s : float;
        (** worker silence (no heartbeat, no result) beyond which a
            leased job is re-queued and the worker presumed dead *)
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
    ?validate:(job_spec -> (unit, string) result) ->
    ?capacity:int -> ?job_timeout_s:float -> ?idle_timeout_s:float ->
    ?heartbeat_grace_s:float -> ?pending_grace_s:float -> ?max_requeues:int ->
    ?journal:(string * Report.Journal.meta) -> string -> config
  (** [config socket_path]. Defaults: accept every spec, capacity 32,
      300 s job timeout, 30 s idle timeout, 5 s heartbeat grace, 60 s
      pending grace, 3 re-queues, no journal. *)

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

  type t = server

  val start : config -> t
  (** Starts the daemon with the fleet executor, like {!Serve.start} but
      creating no domain pool — so the caller may still fork worker
      processes afterwards. *)

  val stop : t -> unit
  (** {!Serve.stop}: leased and pending jobs still reach their terminal
      frames, then every waiting worker is sent [drain]. *)

  val wait : t -> stats
  (** {!Serve.wait}, returning fleet totals. Exactly
      [st_accepted = st_completed + st_timeouts + st_errors] holds. *)

  val stats : t -> stats
  (** A live snapshot, for tests and the bench harness. *)

  val leases : t -> lease_view list
  (** Current leases — the bench crash leg uses this to find which
      worker pid to kill. *)
end

(** {1 Client} *)

module Client : sig
  type t

  val connect : string -> t
  (** Connect to a daemon's socket path. Raises [Unix.Unix_error] when no
      daemon is listening. *)

  val close : t -> unit

  type outcome =
    | Completed of int * float * Report.Journal.obligation
        (** job id, server-side wall seconds, the verdict record *)
    | Timed_out of int * float
        (** the job hit its deadline; the daemon and its pool survive *)
    | Busy of int * int
        (** rejected at admission: (active, capacity). Also the drain
            answer — retry later or elsewhere *)
    | Refused of string
        (** typed error frame (unknown design, certification failure, …) *)

  val submit : t -> job_spec -> outcome
  (** Submit one job and block until its terminal frame. *)

  val status : t -> Report.Json.t
  (** One status frame: active/queued/capacity plus lifetime counters. *)

  val send : t -> Report.Json.t -> unit
  val recv : t -> Report.Json.t
  (** Raw frame I/O, for tests poking at the protocol. [recv] raises
      [Failure] when the server closes the connection. *)
end

(** Sharded multi-process verification behind [aqed_cli serve --workers N].

    The coordinator is the one service daemon ({!Serve}) run with its
    fleet executor: it owns the service socket, admits jobs exactly as
    the in-process daemon does, and leases them at the obligation level
    to worker processes. Admission, frames, journal, watchdog, re-queues
    and drain are documented at {!Serve.Fleet}. A {!Worker} is a thin
    lease loop over {!Serve.solve} with its own domain pool, sharing one
    on-disk {!Store.t} with the rest of the fleet (the store's
    tmp-then-rename + revalidation discipline, plus its advisory gc lock,
    make cross-process sharing safe). *)

(** {1 Coordinator} *)

module Coordinator = Serve.Fleet

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
  }

  val config :
    ?name:string -> ?store:Store.t -> ?pool_workers:int ->
    ?heartbeat_s:float ->
    resolve:(Serve.job_spec -> (string * Aqed.Check.obligation, string) result) ->
    string -> config
  (** [config ~resolve socket_path]. Defaults: name ["w<pid>"], no
      store, pool width 1, 1 s heartbeat (at least 0.05 s). *)

  type summary = {
    wk_leases : int;
    wk_completed : int;
    wk_timeouts : int;
    wk_errors : int;
  }

  val run : config -> summary
  (** Connect (with retry), then loop: lease, resolve the spec,
      solve through {!Serve.solve} on this worker's own pool
      (store-mediated when a store is given), report the result, lease
      again — until the coordinator sends [drain] or its socket closes.

      One ticker thread lives as long as [run]: while a resolved job is
      registered with it, it heartbeats that lease every [heartbeat_s]
      and cancels the solve at the job's deadline. The lease is
      registered only after the spec resolves (a hung resolve is
      heartbeat silence, so the coordinator re-queues it) and cleared
      as soon as the solve returns, under the same lock as every
      socket write; the result frame follows at once, and no heartbeat
      for that lease can come after it. The reported [wall_s] covers
      the solve only. The ticker is stopped and joined once, when
      [run] returns.

      Per-job deadlines are enforced worker-side through the solver's
      cooperative cancellation, exactly like the in-process daemon's
      ({!Sat.Solver.Cancelled} becomes a [timeout] result; the pool
      survives). Connecting retries for 30 s, since a worker may be
      spawned before the coordinator has bound its socket; raises
      [Failure] when the coordinator cannot be reached in that time. *)
end

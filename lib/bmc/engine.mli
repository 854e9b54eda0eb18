(** Bounded model checking of {!Rtl.Ir} circuits.

    The engine bit-blasts the circuit to an AIG transition relation, unrolls
    it frame by frame into one incrementally-growing SAT instance, and asks
    for a violation of the property at the newest frame under the circuit's
    assumptions (applied in every frame). This is classic SAT-based BMC
    (Clarke et al., 2001) — the decision procedure the paper delegates to a
    commercial tool.

    The property is a 1-bit signal expected to hold in {e every} cycle
    (a safety property / invariant), as in the A-QED checks
    [dup_done -> fc_check] and the RB property.

    Observability: each bounded search emits a [bmc.search] telemetry span
    enclosing one [bmc.frame] span per depth (k-induction steps emit
    [bmc.induction]); portfolio race outcomes appear as
    [bmc.portfolio.win]/[bmc.portfolio.cancelled] instants. The engine feeds
    the [bmc.frames] counter, the [bmc.frame_depth] gauge and the
    [bmc.frame_solve_s] latency histogram, and reports the current frame
    through {!Telemetry.Progress} between frames. *)

type outcome =
  | Cex of Trace.t
      (** A violating input sequence; its length is the BMC depth at which
          the bug was found (the minimum, since depths are tried in order). *)
  | Bounded_ok of int
      (** No violation within the given bound. *)
  | Proved of int
      (** Established by k-induction at the reported depth ({!prove} only). *)

(** {1 Verdict certification}

    With [~certify:true] every answer of a bounded search is cross-checked
    by an independent mechanism before it is reported.

    A [Cex] is replayed on the cycle-accurate {!Rtl.Sim} simulator, which
    shares no code with the AIG/Tseitin/CNF pipeline: the first property
    violation must land exactly on the trace's final cycle with every
    circuit assumption holding. The confirmed trace is then greedily
    shrunk (per-cycle inputs forced to zero whenever the violation
    survives) and its register values re-derived from the simulator.

    A clean frame — the solver answering Unsat under the frame's single
    [bad] assumption — is certified by reverse unit propagation
    ({!Sat.Rup}): the frame's problem clauses are fed verbatim to the
    checker, the clauses learned during the frame are replayed as RUP
    steps, and asserting the bad literal must propagate to a conflict.
    A [Bounded_ok] verdict is reported [Rup_certified] only when every
    frame on the way certified.

    Any divergence raises {!Certification_failed} (and bumps the
    [cert.failures] counter); successful confirmations feed
    [cert.replayed] and [cert.rup_valid]. *)

type certificate =
  | Replayed of int
      (** Counterexample confirmed by simulator replay; the payload is the
          violation cycle (always the trace's final frame,
          [Trace.length t - 1]). *)
  | Rup_certified of int
      (** Every UNSAT frame up to the reported depth passed the RUP
          check. *)
  | Uncertified
      (** Certification was not requested (or not applicable: the
          k-induction path of {!prove} is not certified). *)

exception Certification_failed of string
(** A certified run diverged: the replay did not confirm the
    counterexample, or a frame's UNSAT answer was not confirmed by unit
    propagation. Either indicates a soundness bug in the encode/solve
    pipeline (or a corrupted proof) and is always worth reporting. *)

exception Warm_start_invalid of string
(** A warm-started search ({!check_prepared} with [warm_depth > 0]) found
    the bad cone structurally violated inside the trusted-clean prefix —
    the caller's stored verdict cannot be right for this relation. The
    caller should discard the stored entry and fall back to a cold
    search. *)

type report = {
  outcome : outcome;
  frames_explored : int;
  wall_time : float;     (** seconds *)
  solver_stats : Sat.Solver.stats;
  aig_nodes : int;       (** nodes the engine actually encoded (post-reduction) *)
  aig_nodes_raw : int;   (** nodes as bit-blasted (equals [aig_nodes] with
                             reduction off) *)
  reduce_stats : Logic.Reduce.stats option;
                         (** per-pass reduction accounting; [None] with
                             reduction off *)
  certificate : certificate;
  winner : string;       (** {!config_label} of the configuration that
                             produced this report — under a portfolio race,
                             the member that finished first; ["induction"]
                             on the inductive path *)
}

(** {1 Portfolio solving}

    A portfolio races one bounded search per solver configuration, each in
    its own domain, on a shared read-only transition relation. The first
    finisher trips a cancellation flag polled inside every other member's
    CDCL loop ({!Sat.Solver.set_cancel}) and between their frames; losers
    unwind and are discarded. Because every member explores depths in
    order, the winning outcome and counterexample depth are identical to
    the sequential engine's — diversification only changes which member
    gets there first (and how fast). *)

type solver_config = {
  seed : int;            (** VSIDS tie-break seed; 0 disables *)
  restart_base : int;    (** conflicts per Luby restart unit, or the minimum
                             restart spacing under [Ema] *)
  phase_init : bool;     (** polarity of never-assigned variables *)
  phase_saving : bool;   (** keep last polarity per variable *)
  restarts : Sat.Solver.restart_style;
                         (** Luby (budgeted) or EMA (Glucose-style dynamic)
                             restarts *)
  inprocess : bool;      (** run {!Sat.Solver.simplify_inplace} between
                             frames *)
  legacy : bool;         (** historical solver behaviour (A/B baseline);
                             forces Luby restarts *)
}

val default_config : solver_config
(** The sequential engine's configuration: Luby restarts, inprocessing on. *)

val legacy_config : solver_config
(** The pre-modernization solver, for A/B comparison and differential
    testing: legacy reduction/minimization and no between-frame
    inprocessing. Verdicts and counterexample depths are identical to
    {!default_config} on every obligation — only speed differs. *)

val config_label : solver_config -> string
(** A stable, human-readable identity for a configuration (e.g.
    ["ema:rb50:seed3:p1"]) — what journals record as the portfolio
    winner. *)

val portfolio_configs : ?base:solver_config -> int -> solver_config list
(** [portfolio_configs n] is [n] diversified configurations; the first is
    always [base] (default {!default_config}). Later members vary the seed,
    polarity heuristics and the restart {e strategy} — odd members run EMA
    restarts (unless [base] is legacy), so the portfolio races genuinely
    different searches rather than reseedings of one. *)

(** {1 Prepared obligations}

    [prepare] bit-blasts (and, by default, structurally reduces — see
    {!Logic.Reduce}) a circuit into a transition relation exactly once; the
    prepared value then feeds both the obligation-cache key and any number
    of searches, instead of rebuilding the relation per use. Reduction
    preserves every verdict and counterexample depth; [~reduce:false] is
    the escape hatch (CLI [--no-reduce]). *)

type prepared

val prepare :
  ?reduce:bool -> ?sweep:bool -> ?induction:bool ->
  Rtl.Ir.circuit -> prop:Rtl.Ir.signal ->
  prepared
(** [reduce] (default true) runs the structural reduction pipeline.
    [sweep] (default false) additionally enables SAT sweeping inside the
    pipeline: equivalence-preserving, but on some obligations the few
    proven merges perturb the solver enough to cost more than they save
    (measured 4x slower on the AES FC check), so it is opt-in (CLI
    [--sweep]). [induction] (default false) must be set when the relation
    will be used for {!prove_prepared}: it disables the
    reachable-constant-latch pass, whose reachability facts are sound for
    bounded search from reset but could strengthen an induction step. *)

val prepared_key : prepared -> string
(** A digest of the (reduced) obligation: the AIG gate structure, the bad
    edge, the assumption edges and the latch wiring with reset values —
    everything the BMC outcome depends on, and nothing it does not (input
    names are excluded). Two preparations with equal keys have identical
    BMC behaviour at every depth, so the key indexes the obligation cache;
    repeated sub-obligations across bug variants and configurations hash
    equal and are solved once. Reduction is deterministic, so keys are
    stable — and reduction can only merge more obligations (circuits that
    differ outside their cones of influence now hash equal too). *)

val prepared_stats : prepared -> Logic.Reduce.stats option
(** Reduction accounting for a prepared relation; [None] with
    [~reduce:false]. *)

val check_prepared :
  ?max_depth:int -> ?trace_regs:bool -> ?portfolio:int -> ?certify:bool ->
  ?config:solver_config -> ?warm_depth:int -> ?cancel:bool Atomic.t ->
  prepared -> report
(** Bounded search from reset. When the prepared relation was reduced, the
    search also applies temporal decomposition
    ({!Logic.Reduce.frame_constants}): latch bits provably constant at a
    given cycle are bound to their constants in that frame and their
    transition cones are never encoded, shrinking the per-frame CNF without
    changing any verdict or counterexample depth.

    [certify] (default false) cross-checks every answer as described under
    {!type:certificate}, raising {!Certification_failed} on divergence. In
    a portfolio, each member certifies its own solver run.

    [config] (default {!default_config}) selects the solver configuration;
    with [portfolio > 1] it seeds member 0 and the base of the
    diversification menu. Every configuration returns the same verdict at
    the same depth.

    [warm_depth] (default 0) resumes an incremental re-verification: frames
    [1 .. warm_depth] are trusted clean on the caller's authority (a
    certified verdict-store entry for this exact prepared key), encoded
    with their bad literals blocked but never solved, and the search starts
    querying at [warm_depth + 1]. Verdicts and counterexample depths beyond
    the prefix are identical to a cold search; a structural contradiction
    inside the prefix raises {!Warm_start_invalid} rather than masking a
    bug. Under [certify], the returned [Rup_certified] covers the frames
    this run solved, conditional on the stored certificate for the
    prefix.

    [cancel] is an external cooperative stop flag (e.g. a job timeout):
    when it flips to [true] the in-flight SAT solve unwinds and the call
    raises {!Sat.Solver.Cancelled}. Sequentially the flag is polled inside
    the CDCL loop; a portfolio bridges it onto the internal race flag from
    a monitor domain. The flag is only read, never written — a portfolio
    win cancels losers through its own internal flag, so a caller-shared
    [cancel] is not tripped by normal completion. *)

val prove_prepared : ?max_depth:int -> prepared -> report
(** The prepared value must come from [prepare ~induction:true]. *)

val replay_prepared : prepared -> Trace.t -> int option
(** Replays a trace on the cycle-accurate simulator against the prepared
    obligation's source circuit and returns the first violating cycle
    ([None] when the property never fails or an assumption breaks). This
    is the cheap revalidation step for stored counterexamples: a stored
    [Bug] entry is only trusted when the replay confirms the violation on
    the trace's final cycle. *)

val check :
  ?max_depth:int -> ?trace_regs:bool -> ?portfolio:int -> ?certify:bool ->
  ?config:solver_config ->
  ?reduce:bool -> ?sweep:bool ->
  Rtl.Ir.circuit -> prop:Rtl.Ir.signal ->
  report
(** Searches depths 1, 2, ... [max_depth] (default 64) for a counterexample.
    [trace_regs] (default true) includes reconstructed register values in the
    trace. The property signal must be 1 bit wide and belong to the circuit.
    [portfolio] (default 1) races that many diversified solver
    configurations and returns the first report; [1] runs the sequential
    engine with no extra domains. [reduce] (default true) runs the
    structural reduction pipeline first; verdicts and counterexample depths
    are identical either way. *)

val prove :
  ?max_depth:int -> ?reduce:bool -> ?sweep:bool ->
  Rtl.Ir.circuit -> prop:Rtl.Ir.signal -> report
(** Interleaves the bounded search with simple k-induction: if no
    counterexample exists at depth [k] and the inductive step at [k] is
    unsatisfiable, the property is reported [Proved]. Sound; incomplete
    (no unique-state constraints), so [Bounded_ok] may be returned at the
    bound even for true properties. *)

val pp_certificate : Format.formatter -> certificate -> unit

val obligation_key :
  ?reduce:bool -> ?sweep:bool -> Rtl.Ir.circuit -> prop:Rtl.Ir.signal -> string
(** [prepared_key] of a fresh [prepare] — kept for callers that only need
    the key. *)

val export_aiger : Rtl.Ir.circuit -> prop:Rtl.Ir.signal -> out_channel -> unit
(** Writes the bit-blasted transition relation as ASCII AIGER with a single
    bad-state property ([not prop]), the format of the hardware
    model-checking competition — so the BMC problems this engine solves can
    be cross-checked with external tools (ABC, aigbmc...). The export is
    the {e unreduced} relation (full symbol table, every latch): bit-exact
    with the source circuit and equisatisfiable at every depth with the
    reduced relation the engine searches.
    Circuit assumptions become constraint outputs named ["constraint_<i>"]
    in the symbol table (AIGER 1.9 constraint semantics are not encoded
    structurally; external tools must be told to treat them as invariants,
    or the circuit should carry no assumptions). *)

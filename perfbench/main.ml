(* The repository benchmark.

     main.exe --workload cold-solve|registry-fleet|warm-served
              --seed N --seconds S --trace 0|1

   Run from the repository root. Each workload repeats rounds of its job
   stream for about [--seconds] and checks every verdict against
   perfbench/expected.txt. [--trace 0] reports the end-to-end metrics;
   [--trace 1] runs one product round, then the traced composition of the
   same stream, and reports the per-layer split. The last stdout line is
   one JSON object: correct, attempted, failed, metrics. Scratch state
   (sockets, stores, the pre-filled store, trace files) lives under
   .perfbench/ in the working directory. *)

let state_dir = ".perfbench"
let expected_file = Filename.concat "perfbench" "expected.txt"
let clients = 2     (* client connections on the served workloads *)
let executors = 2   (* fleet workers (pool width 1 each) / daemon pool *)
let job_timeout_s = 60.
let rss_rounds = 3  (* peak_rss_mb is the peak over this many rounds *)

let now = Unix.gettimeofday
let ( / ) = Filename.concat

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (path / f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let mkdir_p path =
  try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let copy_dir src dst =
  mkdir_p dst;
  Array.iter
    (fun f ->
      if (Unix.lstat (src / f)).Unix.st_kind = Unix.S_REG then
        Out_channel.with_open_bin (dst / f) (fun oc ->
            Out_channel.output_string oc
              (In_channel.with_open_bin (src / f) In_channel.input_all)))
    (Sys.readdir src)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
  |> Option.value ~default:Float.nan

(* Lowers the peak to the current resident set (Linux clear_refs), so the
   next reading is the peak of what ran in between. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Program counters, read through the public registry; a histogram reads
   as its sum of seconds. *)
let counters () =
  List.map
    (fun (name, v) ->
      ( name,
        match v with
        | Telemetry.Counter n | Telemetry.Gauge n -> float_of_int n
        | Telemetry.Histogram h -> h.Telemetry.sum_s ))
    (Telemetry.metrics ())

let delta before after name =
  let get l = Option.value ~default:0. (List.assoc_opt name l) in
  get after -. get before

let resolve (spec : Serve.job_spec) =
  match Cli.resolve_job spec with
  | Ok (_, ob) -> ob
  | Error m -> failwith ("cannot resolve " ^ Catalog.label_of spec ^ ": " ^ m)

(* ---- independent confirmation of a verdict ----

   The composition re-derives each obligation's prepared relation from
   the design registry; its structural key must equal the key the product
   reported, and every counterexample must replay on the simulator with
   the violation on its final cycle. Memoized per obligation, outside any
   timed region. *)

let prepared_memo : (string, Bmc.Engine.prepared * string) Hashtbl.t =
  Hashtbl.create 64

let confirm (job : Catalog.job) ~key ~trace =
  let prepared, ckey =
    match Hashtbl.find_opt prepared_memo job.Catalog.label with
    | Some v -> v
    | None ->
      let p = Compose.prepare job.Catalog.spec in
      let v = (p, Bmc.Engine.prepared_key p) in
      Hashtbl.replace prepared_memo job.Catalog.label v;
      v
  in
  if ckey <> key then Error "composition key differs from the product's key"
  else
    match trace with
    | None -> Ok ()
    | Some t -> (
        match Bmc.Engine.replay_prepared prepared t with
        | Some c when c = Bmc.Trace.length t - 1 -> Ok ()
        | Some _ | None -> Error "counterexample does not replay on Rtl.Sim")

let verdict_of_check (r : Aqed.Check.report) =
  match r.Aqed.Check.verdict with
  | Aqed.Check.Bug t -> (Answers.Bug (Bmc.Trace.length t), Some t)
  | Aqed.Check.No_bug_up_to k | Aqed.Check.Proved k -> (Answers.Clean k, None)

(* A served record carries no trace; a bug's counterexample is read back
   from the store the job was answered through. *)
let confirm_served store (job : Catalog.job) (ob : Report.Journal.obligation) =
  let key = ob.Report.Journal.ob_key in
  match ob.Report.Journal.ob_verdict with
  | "bug" -> (
      let fingerprint = Compose.fingerprint job.Catalog.spec in
      match Store.lookup store ~key ~fingerprint with
      | Some { Store.e_verdict = Store.Bug t; _ } -> confirm job ~key ~trace:(Some t)
      | Some _ | None -> Error "no stored counterexample for a bug verdict")
  | _ -> confirm job ~key ~trace:None

let served_verdict (ob : Report.Journal.obligation) =
  match ob.Report.Journal.ob_verdict with
  | "bug" -> Answers.Bug ob.Report.Journal.ob_depth
  | _ -> Answers.Clean ob.Report.Journal.ob_depth

(* ---- rounds ---- *)

type sample = {
  job : Catalog.job;
  latency : float;            (** client submit to terminal frame; the
                                  per-obligation wall on cold-solve *)
  server_wall : float option; (** job wall the daemon or worker reported *)
  outcome : Answers.outcome;
  key : string option;        (** the product's structural key *)
}

type round = {
  setups : float list;
  wall : float;              (** first submit to last terminal verdict *)
  samples : sample list;
  before : (string * float) list;  (** counters around the timed suite *)
  after : (string * float) list;
  requeued : int;
}

(* cold-solve: set-up resolves the job specs through the product's
   resolver. That takes microseconds, so a set-up sample is the mean of a
   batch of resolutions of the whole stream. The suite solves the
   obligations one after another on this domain, each from a collected
   heap as in a fresh [aqed_cli check], so that no solve pays for the
   garbage of the one before it; the suite wall is the sum of the solves.
   The set-up samples are taken before each solve rather than all at
   once: the host's speed changes from one moment to the next, and
   spreading them over the round lets their median see the same mix of
   moments the solves do. *)
let cold_round stream =
  let resolve_all () =
    List.map (fun (j : Catalog.job) -> (j, resolve j.Catalog.spec)) stream
  in
  let setup_sample () =
    let reps = 20 in
    let t0 = now () in
    for _ = 1 to reps do ignore (resolve_all ()) done;
    (now () -. t0) /. float_of_int reps
  in
  let obs = resolve_all () in
  let before = counters () in
  let solved =
    List.map
      (fun (j, ob) ->
        Gc.full_major ();
        let setups = List.init 4 (fun _ -> setup_sample ()) in
        let s = now () in
        let r = Aqed.Check.run_obligation ob in
        (j, setups, now () -. s, r))
      obs
  in
  let setups = List.concat_map (fun (_, s, _, _) -> s) solved in
  let wall = List.fold_left (fun a (_, _, l, _) -> a +. l) 0. solved in
  let after = counters () in
  let samples =
    List.map
      (fun (job, _, latency, r) ->
        let v, trace = verdict_of_check r in
        let key = r.Aqed.Check.key in
        { job; latency; server_wall = None;
          outcome = Answers.Completed (v, confirm job ~key ~trace);
          key = Some key })
      solved
  in
  { setups; wall; samples; before; after; requeued = 0 }

(* Closed loop: [clients] connections each submit the next job of the
   shared stream once their previous one reached its terminal frame. *)
let drive conns stream =
  let items = Array.of_list stream in
  let out = Array.make (Array.length items) None in
  let next = Atomic.make 0 in
  let client c =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length items then begin
        let s = now () in
        let o =
          try Serve.Client.submit c items.(i).Catalog.spec
          with e -> Serve.Client.Refused (Printexc.to_string e)
        in
        out.(i) <- Some (s, now (), o);
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join (List.map (fun c -> Thread.create client c) conns);
  let done_ = Array.to_list (Array.map Option.get out) in
  let first = List.fold_left (fun m (s, _, _) -> Float.min m s) infinity done_ in
  let last = List.fold_left (fun m (_, e, _) -> Float.max m e) 0. done_ in
  (List.combine stream done_, last -. first)

let sample_of_served store ~expect_miss (job, (s, e, o)) =
  let latency = e -. s in
  match o with
  | Serve.Client.Completed (_, wall, ob) ->
    let confirmed =
      if expect_miss && ob.Report.Journal.ob_cached then
        Error "expected a certified miss, got a cached answer"
      else confirm_served store job ob
    in
    { job; latency; server_wall = Some wall;
      outcome = Answers.Completed (served_verdict ob, confirmed);
      key = Some ob.Report.Journal.ob_key }
  | Serve.Client.Timed_out (_, wall) ->
    { job; latency; server_wall = Some wall; outcome = Answers.Timed_out; key = None }
  | Serve.Client.Busy _ ->
    { job; latency; server_wall = None; outcome = Answers.Busy; key = None }
  | Serve.Client.Refused m ->
    { job; latency; server_wall = None; outcome = Answers.Refused m; key = None }

let wait_until what f =
  let deadline = now () +. 30. in
  let rec go () =
    if not (f ()) then
      if now () > deadline then failwith ("timed out waiting for " ^ what)
      else (Thread.delay 0.0005; go ())
  in
  go ()

(* registry-fleet: a coordinator, two in-process lease-loop workers (pool
   width 1) sharing a fresh empty store, two client connections. *)
let fleet_round ~dir stream =
  let store_dir = dir / "fleet-store" and socket = dir / "fleet.sock" in
  rm_rf store_dir;
  let t0 = now () in
  let store = Store.open_store store_dir in
  let srv =
    Shard.Coordinator.start
      (Shard.Coordinator.config
         ~validate:(fun spec -> Result.map ignore (Cli.resolve_job spec))
         ~job_timeout_s socket)
  in
  let workers =
    List.init executors (fun i ->
        Thread.create
          (fun () ->
            try
              ignore
                (Shard.Worker.run
                   (Shard.Worker.config ~name:(Printf.sprintf "w%d" (i + 1))
                      ~store ~pool_workers:1 ~resolve:Cli.resolve_job socket))
            with e -> prerr_endline ("worker: " ^ Printexc.to_string e))
          ())
  in
  wait_until "the fleet workers" (fun () ->
      (Shard.Coordinator.stats srv).Shard.Coordinator.st_workers = executors);
  let conns = List.init clients (fun _ -> Serve.Client.connect socket) in
  let setup = now () -. t0 in
  let before = counters () in
  let done_, wall = drive conns stream in
  let after = counters () in
  List.iter Serve.Client.close conns;
  Shard.Coordinator.stop srv;
  let st = Shard.Coordinator.wait srv in
  List.iter Thread.join workers;
  let samples = List.map (sample_of_served store ~expect_miss:true) done_ in
  { setups = [ setup ]; wall; samples; before; after;
    requeued = st.Shard.Coordinator.st_requeued }

(* State kept between runs (the pre-filled store, the recorded counts) is
   keyed on the answers file and on this program's binary, so a run only
   ever reuses what the same build made from the same job set; another
   commit's solver or key derivation never reads it. *)
let state_tag () =
  Digest.string (Digest.file expected_file ^ Digest.file Sys.executable_name)
  |> Digest.to_hex
  |> fun h -> String.sub h 0 12

(* The pre-filled store warm-served starts from: every cold-solve and
   registry-fleet obligation, solved certified once per build and version
   of the answers file, and copied afresh for every round. *)
let prefill jobs =
  let dir = state_dir / ("prefill-" ^ state_tag ()) in
  if not (Sys.file_exists dir) then begin
    let tmp = Printf.sprintf "%s.tmp%d" dir (Unix.getpid ()) in
    rm_rf tmp;
    let store = Store.open_store tmp in
    let stored = Catalog.pool "cold" jobs @ Catalog.pool "fleet" jobs in
    let b =
      Aqed.Check.run_batch ~jobs:executors ~store
        (List.map (fun (j : Catalog.job) -> resolve j.Catalog.spec) stored)
    in
    List.iter2
      (fun (j : Catalog.job) (e : Aqed.Check.batch_entry) ->
        let got, _ = verdict_of_check e.Aqed.Check.entry_report in
        match Answers.check ~expected:j.Catalog.answer got with
        | Ok () -> ()
        | Error m -> failwith ("pre-filling " ^ j.Catalog.label ^ ": " ^ m))
      stored b.Aqed.Check.entries;
    (* Another run may have published the same store meanwhile. *)
    try Sys.rename tmp dir with Sys_error _ when Sys.file_exists dir -> rm_rf tmp
  end;
  dir

(* warm-served: one daemon (pool of 2, in-process cache) on a copy of the
   pre-filled store, two client connections. *)
let served_round ~dir ~prefilled stream =
  let store_dir = dir / "served-store" and socket = dir / "served.sock" in
  rm_rf store_dir;
  copy_dir prefilled store_dir;
  let t0 = now () in
  let store = Store.open_store store_dir in
  let srv =
    Serve.start
      (Serve.config ~store ~workers:executors ~job_timeout_s
         ~resolve:Cli.resolve_job socket)
  in
  let conns = List.init clients (fun _ -> Serve.Client.connect socket) in
  let setup = now () -. t0 in
  let before = counters () in
  let done_, wall = drive conns stream in
  let after = counters () in
  List.iter Serve.Client.close conns;
  Serve.stop srv;
  ignore (Serve.wait srv);
  let samples = List.map (sample_of_served store ~expect_miss:false) done_ in
  { setups = [ setup ]; wall; samples; before; after; requeued = 0 }

(* ---- workloads ---- *)

type workload = {
  name : string;
  stream : Random.State.t -> Catalog.job list;
  round : Catalog.job list -> round;
  (* the traced composition's context: certified through a fresh store
     (and the in-process cache), or neither *)
  compose_ctx : unit -> Compose.ctx;
  domains : int;
}

let workload name jobs ~dir =
  match name with
  | "cold-solve" ->
    {
      name;
      stream = (fun rng -> Catalog.shuffle rng (Catalog.pool "cold" jobs));
      round = cold_round;
      compose_ctx = (fun () -> { Compose.store = None; cache = None });
      domains = 1;
    }
  | "registry-fleet" ->
    {
      name;
      stream = (fun rng -> Catalog.shuffle rng (Catalog.pool "fleet" jobs));
      round = fleet_round ~dir;
      compose_ctx =
        (fun () ->
          let d = dir / "compose-store" in
          rm_rf d;
          { Compose.store = Some (Store.open_store d);
            cache = Some (Parallel.Cache.create ()) });
      domains = executors;
    }
  | "warm-served" ->
    let prefilled = prefill jobs in
    {
      name;
      stream = (fun rng -> Catalog.served_stream rng jobs);
      round = served_round ~dir ~prefilled;
      compose_ctx =
        (fun () ->
          let d = dir / "compose-store" in
          rm_rf d;
          copy_dir prefilled d;
          { Compose.store = Some (Store.open_store d);
            cache = Some (Parallel.Cache.create ()) });
      domains = executors;
    }
  | other -> failwith ("unknown workload " ^ other)

(* ---- reporting ---- *)

type metric = { m_name : string; m_value : float; m_unit : string }

let json_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
          (if Float.is_finite m.m_value then Printf.sprintf "%.17g" m.m_value
           else "null")
          m.m_unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " fields)

let tally_of samples =
  List.fold_left
    (fun t s ->
      Answers.record t ~label:s.job.Catalog.label ~expected:s.job.Catalog.answer
        s.outcome)
    Answers.empty samples

(* cold-solve's solver and encoder counts come from deterministic
   sequential solves: every round must repeat them exactly, and so must
   every run of the same build (the first run records them). *)
let count_names = [ "sat.conflicts"; "sat.propagations"; "tseitin.clauses" ]

let check_counts rounds =
  let per_round =
    List.map
      (fun r -> List.map (fun n -> (n, delta r.before r.after n)) count_names)
      rounds
  in
  let file = state_dir / ("cold-solve-" ^ state_tag () ^ ".counts") in
  let render c =
    String.concat "\n" (List.map (fun (n, v) -> Printf.sprintf "%s %.0f" n v) c)
  in
  let first = render (List.hd per_round) in
  let recorded =
    if Sys.file_exists file then In_channel.with_open_text file In_channel.input_all
    else (
      Out_channel.with_open_text file (fun oc -> output_string oc first);
      first)
  in
  let drift =
    List.filter (fun c -> render c <> recorded) per_round |> List.map render
  in
  List.iter
    (fun d ->
      Printf.printf "COUNT DRIFT on cold-solve:\n  recorded: %s\n  this run: %s\n"
        (String.concat ", " (String.split_on_char '\n' recorded))
        (String.concat ", " (String.split_on_char '\n' d)))
    drift;
  Printf.printf "counts (per round, exact): %s%s\n"
    (String.concat ", " (String.split_on_char '\n' first))
    (if drift = [] then " — repeat" else " — DRIFT");
  drift = []

let end_to_end (w : workload) measured =
  let rounds = List.map fst measured in
  let samples = List.concat_map (fun r -> r.samples) rounds in
  let tally = tally_of samples in
  let latencies = List.map (fun s -> s.latency) samples in
  (* The tail is taken over the whole run, as the median is. Per round
     it would be registry-fleet's p75 of 40, a job that ends near the end
     of Shard.Worker's first 50-ms heartbeat step, which host speed flips
     between one step and two. *)
  let tail = Stats.tail_or_max latencies in
  let peaks = List.map snd measured in
  let counts_ok = if w.name = "cold-solve" then check_counts rounds else true in
  let metrics =
    [
      { m_name = "suite_wall_s"; m_value = Stats.median (List.map (fun r -> r.wall) rounds); m_unit = "s" };
      { m_name = "job_latency_p50_s"; m_value = Stats.median latencies; m_unit = "s" };
      { m_name = "job_latency_tail_s"; m_value = tail.Stats.value; m_unit = "s" };
      { m_name = "setup_s"; m_value = Stats.median (List.concat_map (fun r -> r.setups) rounds); m_unit = "s" };
      (* The peak over a fixed number of rounds, so that it does not
         depend on how many rounds fit in the run, yet still grows with
         whatever a round leaves behind. *)
      { m_name = "peak_rss_mb"; m_value = List.nth peaks (rss_rounds - 1); m_unit = "MB" };
    ]
  in
  let show f l = String.concat " " (List.map (fun x -> Printf.sprintf "%.3f" (f x)) l) in
  Printf.printf "%s: %d rounds, %d jobs\n  round walls %s s\n  peak after each round %s MB\n"
    w.name (List.length rounds) tally.Answers.attempted
    (show (fun r -> r.wall) rounds) (show Fun.id peaks);
  List.iter (fun m -> Printf.printf "  %-20s %12.6f %s\n" m.m_name m.m_value m.m_unit) metrics;
  Printf.printf "  %-20s %12.6f ratio  (%d of %d: %d timeouts, %d busy, %d refused, %d mismatches)\n"
    "failed_frac" (Answers.failed_frac tally) (Answers.failed tally)
    tally.Answers.attempted tally.Answers.timeouts tally.Answers.busy
    tally.Answers.refused tally.Answers.mismatches;
  Printf.printf "  job_latency_tail_s is p%.2f of the run's %d jobs (%d beyond)\n"
    tail.Stats.percentile tail.Stats.n tail.Stats.beyond;
  (tally, counts_ok, metrics)

let ratio num den = if den > 0. then num /. den else 0.

(* Client latency minus the job wall the server reported: queueing,
   admission, wire and (in the fleet) the lease round trip. *)
let overheads samples =
  List.filter_map
    (fun s -> Option.map (fun w -> s.latency -. w) s.server_wall)
    samples

(* Rounds until the next one would overrun [seconds], and at least
   [min_rounds]. Each round starts from a collected heap. *)
let measure ~seconds ~min_rounds f =
  let t0 = now () in
  let rec go n acc =
    let s = now () in
    Gc.full_major ();
    let acc = f () :: acc in
    let dt = now () -. s in
    if n + 1 < min_rounds || now () -. t0 +. dt <= seconds then go (n + 1) acc
    else List.rev acc
  in
  go 0 []

let layers =
  [ "core.build"; "bmc.prepare"; "bmc.key"; "cache.lookup"; "store.lookup";
    "store.revalidate"; "bmc.check"; "store.write" ]

let per_layer ~seconds (w : workload) stream =
  (* 1. one product round, untraced: service-level splits, product keys *)
  let product = w.round stream in
  let c name = delta product.before product.after name in
  let busy = List.fold_left (fun a s -> a +. Option.value ~default:0. s.server_wall) 0. product.samples in
  let busy_frac = ratio busy (product.wall *. float_of_int w.domains) in
  let ov = overheads product.samples in
  let ov_p50 = if ov = [] then 0. else Stats.median ov in
  let ov_tail = if ov = [] then 0. else (Stats.tail_or_max ov).Stats.value in
  let keys = Hashtbl.create 64 in
  List.iter (fun s -> Option.iter (Hashtbl.replace keys s.job.Catalog.label) s.key) product.samples;
  (* 2. the composition on the same stream, alternately untraced and
     traced for about [seconds]; the split comes from the last traced
     pass, the tracing overhead from the median walls *)
  let run_compose () =
    let ctx = w.compose_ctx () in
    let t0 = now () in
    let results = Compose.pull_map ~domains:w.domains stream (fun i j -> Compose.run_job ctx ~job:i j.Catalog.spec) in
    (results, now () -. t0)
  in
  let traced () =
    Compose.reset_spans ();
    Telemetry.reset_events ();
    Telemetry.enable ();
    let before = counters () in
    let results, wall = run_compose () in
    let after = counters () in
    Telemetry.disable ();
    (results, wall, before, after)
  in
  let pairs =
    measure ~seconds ~min_rounds:1 (fun () ->
        let _, untraced = run_compose () in
        (untraced, traced ()))
  in
  let wall_untraced = Stats.median (List.map fst pairs) in
  let wall_traced = Stats.median (List.map (fun (_, (_, t, _, _)) -> t) pairs) in
  let results, wall, before, after = snd (List.hd (List.rev pairs)) in
  let trace_file = state_dir / ("trace-" ^ w.name ^ ".json") in
  Telemetry.export_file trace_file;
  Telemetry.reset_events ();
  let composed =
    List.map2
      (fun (job : Catalog.job) (r : Compose.result) ->
        let confirmed =
          match Hashtbl.find_opt keys job.Catalog.label with
          | Some k when k = r.Compose.key -> Ok ()
          | Some _ -> Error "traced composition key differs from the Check report key"
          | None -> Error "no product key for this job"
        in
        { job; latency = 0.; server_wall = None; key = Some r.Compose.key;
          outcome = Answers.Completed (r.Compose.verdict, confirmed) })
      stream results
  in
  (* 3. certification cost on the same prepared relations *)
  let solved = List.filter_map (fun (r : Compose.result) -> r.Compose.solved) results in
  let totals = Compose.span_totals () in
  let self name = Option.value ~default:0. (List.assoc_opt name totals) in
  let n = float_of_int w.domains in
  let certified = self "bmc.check" in
  let cert_s =
    if solved = [] then 0.
    else (certified -. Compose.uncertified_seconds ~domains:w.domains solved) /. n
  in
  let d name = delta before after name in
  let frame_solve = d "bmc.frame_solve_s" in
  let rows = List.map (fun l -> (l, self l /. n)) layers in
  let attributed = List.fold_left (fun a (_, s) -> a +. s) 0. rows in
  (* Every span nests inside its job's span, so the self times of all
     spans sum to the executors' busy time; the rest of each executor's
     wall is spent idle, waiting for work or for the last job to finish. *)
  let busy_s = List.fold_left (fun a (_, s) -> a +. s) 0. totals /. n in
  let idle = wall -. busy_s in
  let unattributed = wall -. attributed -. idle in
  Printf.printf "%s: per-layer split of the traced suite (%d executor domain%s, %d jobs)\n"
    w.name w.domains (if w.domains = 1 then "" else "s") (List.length stream);
  Printf.printf "  %-18s %10s %7s\n" "layer" "seconds" "share";
  List.iter
    (fun (l, s) -> Printf.printf "  %-18s %10.4f %6.1f%%\n" l s (100. *. ratio s wall))
    rows;
  Printf.printf "  %-18s %10.4f %6.1f%%\n" "executor idle" idle (100. *. ratio idle wall);
  Printf.printf "  %-18s %10.4f %6.1f%%\n" "unattributed" unattributed
    (100. *. ratio unattributed wall);
  Printf.printf "  %-18s %10.4f\n" "traced suite wall" wall;
  Printf.printf
    "  %d untraced/traced composition pairs: median walls %.4f / %.4f s; product round %.4f s\n"
    (List.length pairs) wall_untraced wall_traced product.wall;
  Printf.printf "  trace written to %s\n" trace_file;
  let check_s = certified /. n in
  let m name value unit = { m_name = name; m_value = value; m_unit = unit } in
  let metrics =
    [
      m "core.build_s" (self "core.build" /. n) "s";
      m "bmc.prepare_s" (self "bmc.prepare" /. n) "s";
      m "bmc.key_s" (self "bmc.key" /. n) "s";
      m "logic.aig_nodes" (float_of_int (List.fold_left (fun a (r : Compose.result) -> a + r.Compose.aig_nodes) 0 results)) "count";
      m "bmc.check_s" check_s "s";
      m "bmc.frame_solve_s" (frame_solve /. n) "s";
      m "bmc.encode_s" (check_s -. (frame_solve /. n)) "s";
      m "bmc.frames" (d "bmc.frames") "count";
      m "tseitin.vars" (d "tseitin.vars") "count";
      m "tseitin.clauses" (d "tseitin.clauses") "count";
      m "sat.conflicts" (d "sat.conflicts") "count";
      m "sat.propagations" (d "sat.propagations") "count";
      m "sat.props_per_s" (ratio (d "sat.propagations") frame_solve) "1/s";
      m "sat.conflicts_per_s" (ratio (d "sat.conflicts") frame_solve) "1/s";
      m "cert.s" cert_s "s";
      m "cache.lookup_s" (self "cache.lookup" /. n) "s";
      m "store.lookup_s" (self "store.lookup" /. n) "s";
      m "store.revalidate_s" (self "store.revalidate" /. n) "s";
      m "store.write_s" (self "store.write" /. n) "s";
      m "store.hit_ratio" (ratio (c "store.hits") (c "store.hits" +. c "store.misses")) "ratio";
      m "store.warm_starts" (c "store.warm_starts") "count";
      m "pool.busy_frac" (if w.name = "warm-served" then busy_frac else 0.) "ratio";
      m "cache.hit_ratio" (ratio (c "cache.hits") (c "cache.hits" +. c "cache.misses")) "ratio";
      m "serve.overhead_p50_s" (if w.name = "warm-served" then ov_p50 else 0.) "s";
      m "serve.overhead_tail_s" (if w.name = "warm-served" then ov_tail else 0.) "s";
      m "shard.overhead_p50_s" (if w.name = "registry-fleet" then ov_p50 else 0.) "s";
      m "shard.overhead_tail_s" (if w.name = "registry-fleet" then ov_tail else 0.) "s";
      m "shard.worker_busy_frac" (if w.name = "registry-fleet" then busy_frac else 0.) "ratio";
      m "shard.requeued" (float_of_int product.requeued) "count";
      m "trace.suite_wall_s" wall "s";
      m "executor.idle_frac" (ratio idle wall) "ratio";
      m "unattributed_frac" (ratio unattributed wall) "ratio";
      m "trace_overhead_frac" (ratio (wall_traced -. wall_untraced) wall_untraced) "ratio";
      (* The pipeline layers add up to [wall]; what the serve or shard
         path adds around them (dispatch, worker bookkeeping, heartbeats)
         shows as the product round's excess over the composition. *)
      m "service_gap_frac" (ratio (product.wall -. wall_untraced) product.wall) "ratio";
    ]
  in
  List.iter (fun m -> Printf.printf "  %-24s %14.6f %s\n" m.m_name m.m_value m.m_unit) metrics;
  (tally_of (product.samples @ composed), metrics)

(* ---- entry point ---- *)

let () =
  let name = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string name, "cold-solve | registry-fleet | warm-served");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measured time per run");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer split");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  try
    let jobs = Catalog.load expected_file in
    mkdir_p state_dir;
    let dir = state_dir / Printf.sprintf "run-%d" (Unix.getpid ()) in
    rm_rf dir;
    mkdir_p dir;
    at_exit (fun () -> rm_rf dir);
    let w = workload !name jobs ~dir in
    let rng = Random.State.make [| !seed |] in
    let tally, ok, metrics =
      if !trace = 0 then
        let rounds =
          reset_peak_rss ();
          measure ~seconds:!seconds ~min_rounds:rss_rounds (fun () ->
              let r = w.round (w.stream rng) in
              (r, peak_rss_mb ()))
        in
        end_to_end w rounds
      else
        let tally, metrics = per_layer ~seconds:!seconds w (w.stream rng) in
        (tally, true, metrics)
    in
    List.iter (Printf.printf "FAILED %s\n") (List.rev tally.Answers.notes);
    let correct = ok && Answers.failed tally = 0 in
    json_line ~correct ~attempted:tally.Answers.attempted
      ~failed:(Answers.failed tally) metrics;
    exit (if correct then 0 else 1)
  with
  | Failure m | Sys_error m ->
    prerr_endline ("perfbench: " ^ m);
    exit 2

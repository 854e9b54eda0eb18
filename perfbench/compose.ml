(* The traced composition: one job run through the same public layer calls
   [Aqed.Check.run_obligation] makes (design builder + A-QED monitor,
   [Bmc.Engine.prepare], [prepared_key], [Store.lookup], the replay
   revalidation, [check_prepared], [Store.store]), each wrapped in a span
   recorded from this file. The product's own spans (check, reduce,
   bmc.frame, sat.solve ...) land in the same Telemetry buffers when
   tracing is on, nested under these. *)

(* ---- span recorder ----

   Every span records its self time (duration minus its direct children)
   into a per-name total. The child-time stack is domain-local, so spans
   nest per domain exactly like the Telemetry buffers they mirror. *)

let stack : float list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])
let totals : (string, float) Hashtbl.t = Hashtbl.create 16
let totals_lock = Mutex.create ()

let reset_spans () = Mutex.protect totals_lock (fun () -> Hashtbl.reset totals)

let span_totals () =
  Mutex.protect totals_lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals [])

let span name ~job f =
  let st = Domain.DLS.get stack in
  st := 0. :: !st;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let dur = Unix.gettimeofday () -. t0 in
    match !st with
    | children :: rest ->
      (match rest with
       | parent :: up -> st := (parent +. dur) :: up
       | [] -> st := []);
      Mutex.protect totals_lock (fun () ->
          let prev = Option.value ~default:0. (Hashtbl.find_opt totals name) in
          Hashtbl.replace totals name (prev +. dur -. children))
    | [] -> ()
  in
  Fun.protect ~finally:finish (fun () ->
      Telemetry.Span.with_ name ~args:[ ("job", Telemetry.Int job) ] f)

(* ---- the monitored circuit, exactly as [Aqed.Check.prepare_*] builds it ---- *)

(* [Aqed.Check]'s counter sizing: the smallest width that cannot wrap
   within the BMC bound or the RB thresholds. *)
let rec bits_for n = if n <= 1 then 1 else 1 + bits_for ((n + 1) / 2)
let cnt_width ~max_depth ~floor = max 2 (bits_for (max (max_depth + 2) (floor + 2)))

let check_kind (spec : Serve.job_spec) = String.uppercase_ascii spec.Serve.sj_check

let build (spec : Serve.job_spec) =
  let d = Cli.find_design spec.Serve.sj_design in
  let bug = spec.Serve.sj_bug and max_depth = spec.Serve.sj_depth in
  match check_kind spec with
  | "FC" ->
    let iface = d.Cli.build ?bug () in
    let shared = Option.map (fun f -> f iface) d.Cli.shared in
    let m =
      Aqed.Fc_monitor.add ~cnt_width:(cnt_width ~max_depth ~floor:0) ?shared
        iface
    in
    (iface.Aqed.Iface.circuit, m.Aqed.Fc_monitor.prop)
  | "RB" ->
    let iface = d.Cli.build_rb ?bug () in
    let tau = d.Cli.tau in
    let m =
      Aqed.Rb_monitor.add ~cnt_width:(cnt_width ~max_depth ~floor:tau) ~tau
        iface
    in
    ( iface.Aqed.Iface.circuit,
      Rtl.Ir.logand m.Aqed.Rb_monitor.response_prop
        m.Aqed.Rb_monitor.starvation_prop )
  | "SAC" -> (
      match d.Cli.spec with
      | Some spec ->
        let iface = d.Cli.build ?bug () in
        let m = Aqed.Sac_monitor.add ~spec iface in
        (iface.Aqed.Iface.circuit, m.Aqed.Sac_monitor.prop)
      | None -> failwith ("no SAC spec for " ^ d.Cli.name))
  | other -> failwith ("unknown check " ^ other)

let prepare spec =
  let circuit, prop = build spec in
  Bmc.Engine.prepare circuit ~prop

(* ---- one job ---- *)

let verdict_of_outcome = function
  | Bmc.Engine.Cex t -> Answers.Bug (Bmc.Trace.length t)
  | Bmc.Engine.Bounded_ok k | Bmc.Engine.Proved k -> Answers.Clean k

(* The fingerprint store-mediated solves are filed under: certified, with
   the default reduction and solver configuration. *)
let fingerprint spec =
  let config =
    Store.config_fingerprint ~reduce:true ~sweep:false ~certify:true
      ~solver_label:(Bmc.Engine.config_label Bmc.Engine.default_config)
  in
  Store.fingerprint ~config ~check:(check_kind spec)

type solved = {
  s_prepared : Bmc.Engine.prepared;
  s_warm : int;
  s_max_depth : int;
}
(** A certified solve this job ran, kept so [uncertified_seconds] can time the
    same search uncertified. *)

type result = {
  verdict : Answers.verdict;
  key : string;
  aig_nodes : int;
  solved : solved option;
}

type ctx = {
  store : Store.t option;  (** [None]: uncertified, as cold-solve runs *)
  cache : (string, Answers.verdict * solved option) Parallel.Cache.t option;
}

let entry_of ~key ~fingerprint ~check (r : Bmc.Engine.report) =
  let verdict, cert =
    match (r.Bmc.Engine.outcome, r.Bmc.Engine.certificate) with
    | Bmc.Engine.Cex t, Bmc.Engine.Replayed c -> (Store.Bug t, Store.Cert_replayed c)
    | Bmc.Engine.Bounded_ok k, Bmc.Engine.Rup_certified j -> (Store.Clean k, Store.Cert_rup j)
    | _ -> failwith "certified solve returned an uncertified verdict"
  in
  {
    Store.e_key = key;
    e_fingerprint = fingerprint;
    e_check = check;
    e_verdict = verdict;
    e_cert = cert;
    e_frames = r.Bmc.Engine.frames_explored;
    e_aig_nodes = r.Bmc.Engine.aig_nodes;
    e_aig_nodes_raw = r.Bmc.Engine.aig_nodes_raw;
    e_winner = r.Bmc.Engine.winner;
    e_wall = r.Bmc.Engine.wall_time;
    e_reduce = r.Bmc.Engine.reduce_stats;
    e_solver = r.Bmc.Engine.solver_stats;
    e_created_s = Unix.gettimeofday ();
  }

(* The store policy of [Aqed.Check]: a hit is trusted only after
   revalidation (replay of a stored counterexample; a RUP-certified clean
   entry at or beyond the bound), a shallower clean entry warm-starts the
   search, anything else is a certified miss written back. *)
let via_store store ~job spec prepared key =
  let k = spec.Serve.sj_depth and check = check_kind spec in
  let fingerprint = fingerprint spec in
  let solve warm =
    let r =
      span "bmc.check" ~job (fun () ->
          Bmc.Engine.check_prepared ~max_depth:k ~certify:true ~warm_depth:warm
            prepared)
    in
    let e = entry_of ~key ~fingerprint ~check r in
    span "store.write" ~job (fun () -> Store.store store e);
    ( verdict_of_outcome r.Bmc.Engine.outcome,
      Some { s_prepared = prepared; s_warm = warm; s_max_depth = k } )
  in
  let cold () = solve 0 in
  match span "store.lookup" ~job (fun () -> Store.lookup store ~key ~fingerprint) with
  | None -> cold ()
  | Some e -> (
      match (e.Store.e_verdict, e.Store.e_cert) with
      | Store.Bug t, Store.Cert_replayed _ -> (
          let len = Bmc.Trace.length t in
          match
            span "store.revalidate" ~job (fun () ->
                Bmc.Engine.replay_prepared prepared t)
          with
          | Some c when c = len - 1 ->
            ((if len <= k then Answers.Bug len else Answers.Clean k), None)
          | Some _ | None -> cold ())
      | Store.Clean d0, Store.Cert_rup j when j >= d0 ->
        if d0 >= k then (Answers.Clean k, None)
        else (
          match solve d0 with
          | r -> r
          | exception Bmc.Engine.Warm_start_invalid _ -> cold ())
      | (Store.Bug _ | Store.Clean _), _ -> cold ())

let run_job ctx ~job (spec : Serve.job_spec) =
  span "job" ~job @@ fun () ->
  let circuit, prop = span "core.build" ~job (fun () -> build spec) in
  let prepared =
    span "bmc.prepare" ~job (fun () -> Bmc.Engine.prepare circuit ~prop)
  in
  let key = span "bmc.key" ~job (fun () -> Bmc.Engine.prepared_key prepared) in
  let compute () =
    match ctx.store with
    | Some store -> via_store store ~job spec prepared key
    | None ->
      let r =
        span "bmc.check" ~job (fun () ->
            Bmc.Engine.check_prepared ~max_depth:spec.Serve.sj_depth prepared)
      in
      (verdict_of_outcome r.Bmc.Engine.outcome, None)
  in
  let verdict, solved =
    match ctx.cache with
    | None -> compute ()
    | Some c ->
      (* The daemon's in-process cache key: structural key plus the solve
         parameters (certified, no induction). *)
      let ckey =
        Printf.sprintf "%s:%s:d%d:i%b:c%b" key (check_kind spec)
          spec.Serve.sj_depth false true
      in
      let hit, v =
        span "cache.lookup" ~job (fun () -> Parallel.Cache.find_or_compute c ckey compute)
      in
      if hit then (fst v, None) else v
  in
  let aig_nodes =
    match Bmc.Engine.prepared_stats prepared with
    | Some s -> s.Logic.Reduce.nodes_after
    | None -> 0
  in
  { verdict; key; aig_nodes; solved }

(* ---- executors ---- *)

(* Runs [f i item] over [items] on [domains] domains pulling the next
   index from a shared counter — the closed-loop pull shape of the pool
   and the fleet's leases. One domain runs on the caller. *)
let pull_map ~domains items f =
  let items = Array.of_list items in
  let out = Array.make (Array.length items) None in
  let next = Atomic.make 0 in
  let rec loop () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length items then begin
      out.(i) <- Some (f i items.(i));
      loop ()
    end
  in
  if domains <= 1 then loop ()
  else List.iter Domain.join (List.init domains (fun _ -> Domain.spawn loop));
  Array.to_list (Array.map Option.get out)

(* Certification cost: the certified searches the composition ran, timed
   again uncertified on the same prepared relations and warm prefixes.
   Returns domain-seconds (certified minus uncertified is the caller's
   subtraction). *)
let uncertified_seconds ~domains solved =
  pull_map ~domains solved (fun _ s ->
      let t0 = Unix.gettimeofday () in
      ignore
        (Bmc.Engine.check_prepared ~max_depth:s.s_max_depth ~warm_depth:s.s_warm
           s.s_prepared);
      Unix.gettimeofday () -. t0)
  |> List.fold_left ( +. ) 0.

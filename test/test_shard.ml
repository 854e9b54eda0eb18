(* The sharded verification fleet, in-process half: client-protocol
   parity with the single-process daemon (verdicts, keys, certificates
   vs a direct solve), worker-side deadlines, and a fleet that never
   forms at all. In every scenario the drain accounting must balance
   exactly: accepted = completed + timeouts + errors.

   Workers here are threads over the real [Shard.Worker.run] lease loop,
   each with its own domain pool. The process-level failure scenarios —
   a worker SIGKILLed mid-solve, a worker that leases and then falls
   silent — need real fork'd children and live in test_proc.ml, a
   separate test executable: Unix.fork is forbidden once any domain has
   been spawned, and this runner's suites create pools. *)

module Ir = Rtl.Ir

let echo ?(twist = false) () =
  let c = Ir.create "echo_shard" in
  let in_valid, _, in_data, out_ready =
    Aqed.Iface.standard_inputs c ~data_width:4 ()
  in
  let have = Ir.reg0 c "have" 1 in
  let value = Ir.reg0 c "value" 4 in
  let parity = Ir.reg0 c "parity" 1 in
  let in_ready = Ir.lognot have in
  let in_fire = Ir.logand in_valid in_ready in
  let out_fire = Ir.logand have out_ready in
  let base = Ir.add in_data (Ir.constant c ~width:4 3) in
  let stored =
    if twist then Ir.mux parity (Ir.logxor base (Ir.constant c ~width:4 1)) base
    else base
  in
  Ir.connect c value (Ir.mux in_fire stored value);
  Ir.connect c have (Ir.mux in_fire (Ir.vdd c) (Ir.mux out_fire (Ir.gnd c) have));
  Ir.connect c parity (Ir.mux in_fire (Ir.lognot parity) parity);
  Aqed.Iface.make c ~in_valid ~in_data ~in_ready ~out_valid:have
    ~out_data:value ~out_ready ()

let ob_fc ?(twist = false) ~depth () =
  Aqed.Check.prepare_fc ~max_depth:depth ~cnt_width:8 (fun () ->
      echo ~twist ())

(* The healthy worker's resolver. *)
let resolve (spec : Serve.job_spec) =
  let depth = spec.Serve.sj_depth in
  match spec.Serve.sj_design with
  | "echo" -> Ok ("echo", ob_fc ~depth ())
  | "echo-twist" -> Ok ("echo-twist", ob_fc ~twist:true ~depth ())
  | "aes-deep" ->
    Ok
      ( "aes-deep",
        Aqed.Check.prepare_fc ~max_depth:depth
          ~shared:Accel.Aes.shared_key (fun () -> Accel.Aes.build ()) )
  | d -> Error (Printf.sprintf "unknown design %s" d)

let tmp_path label =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "aqed_shard_%d_%s" (Unix.getpid ()) label)

let with_coord ?(capacity = 8) ?(job_timeout_s = 120.)
    ?(heartbeat_grace_s = 5.) ?(pending_grace_s = 60.) ?(max_requeues = 3)
    label f =
  let sock = tmp_path (label ^ ".sock") in
  let cfg =
    Shard.Coordinator.config ~capacity ~job_timeout_s ~idle_timeout_s:10.
      ~heartbeat_grace_s ~pending_grace_s ~max_requeues sock
  in
  let srv = Shard.Coordinator.start cfg in
  let finish () =
    Shard.Coordinator.stop srv;
    Shard.Coordinator.wait srv
  in
  match f sock srv with
  | v ->
    let summary = finish () in
    (v, summary)
  | exception e ->
    ignore (finish ());
    raise e

(* A healthy in-process worker: runs the real lease loop on a thread,
   exits when the coordinator drains. *)
let start_worker ?name ?heartbeat_s ?(resolve = resolve) sock =
  Thread.create
    (fun () ->
      try
        ignore
          (Shard.Worker.run
             (Shard.Worker.config ?name ?heartbeat_s ~resolve sock))
      with _ -> ())
    ()

let with_client sock f =
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () -> f c)

let submit_ok c spec =
  match Serve.Client.submit c spec with
  | Serve.Client.Completed (_, _, o) -> o
  | Serve.Client.Timed_out (j, w) ->
    Alcotest.failf "job %d unexpectedly timed out after %.3fs" j w
  | Serve.Client.Busy (a, cap) ->
    Alcotest.failf "unexpectedly busy (%d/%d)" a cap
  | Serve.Client.Refused m -> Alcotest.failf "refused: %s" m

let check_balance (s : Shard.Coordinator.stats) =
  Alcotest.(check int) "accepted = completed + timeouts + errors"
    s.Shard.Coordinator.st_accepted
    (s.Shard.Coordinator.st_completed + s.Shard.Coordinator.st_timeouts
     + s.Shard.Coordinator.st_errors)

(* ---- protocol parity: the daemon's client cannot tell the modes apart ---- *)

let test_fleet_parity_vs_direct () =
  let direct =
    Aqed.Check.run_obligation ~certify:true (ob_fc ~twist:true ~depth:10 ())
  in
  let (o : Report.Journal.obligation), summary =
    with_coord "parity" (fun sock _srv ->
        let w1 = start_worker ~name:"p1" sock in
        let w2 = start_worker ~name:"p2" sock in
        let o =
          with_client sock (fun c ->
              (* The unmodified single-process client end-to-end. *)
              let o =
                submit_ok c
                  (Serve.job_spec ~check:"fc" ~depth:10 ~certify:true
                     "echo-twist")
              in
              ignore (submit_ok c (Serve.job_spec ~depth:8 "echo"));
              (* The status frame advertises the fleet. *)
              let st = Serve.Client.status c in
              Alcotest.(check int) "two workers visible" 2
                (Report.Json.int_or 0 (Report.Json.member "workers" st));
              o)
        in
        (o, [ w1; w2 ]))
      |> fun ((o, ws), summary) ->
      List.iter Thread.join ws;
      (o, summary)
  in
  Alcotest.(check string) "verdict" "bug" o.Report.Journal.ob_verdict;
  Alcotest.(check string) "structural key parity" direct.Aqed.Check.key
    o.Report.Journal.ob_key;
  (match direct.Aqed.Check.certificate with
   | Aqed.Check.Replayed k ->
     Alcotest.(check string) "certificate parity"
       (Printf.sprintf "replayed:%d" k)
       o.Report.Journal.ob_certificate
   | _ -> Alcotest.fail "direct certified bug must carry a replay cert");
  Alcotest.(check int) "two accepted" 2 summary.Shard.Coordinator.st_accepted;
  Alcotest.(check int) "two completed" 2
    summary.Shard.Coordinator.st_completed;
  Alcotest.(check int) "two leases" 2 summary.Shard.Coordinator.st_leases;
  Alcotest.(check int) "no deaths" 0
    summary.Shard.Coordinator.st_worker_deaths;
  check_balance summary

(* ---- worker-side deadline: typed timeout, fleet survives ---- *)

let test_worker_deadline_typed_timeout () =
  let (), summary =
    with_coord "timeout" (fun sock _srv ->
        let w = start_worker ~name:"t1" sock in
        with_client sock (fun c ->
            (match
               Serve.Client.submit c
                 (Serve.job_spec ~depth:24 ~timeout_s:0.3 "aes-deep")
             with
             | Serve.Client.Timed_out (_, wall) ->
               Alcotest.(check bool) "took at least its deadline" true
                 (wall >= 0.3)
             | Serve.Client.Completed _ ->
               Alcotest.fail "deep AES cannot finish in 0.3s"
             | Serve.Client.Busy _ | Serve.Client.Refused _ ->
               Alcotest.fail "expected a typed timeout frame");
            (* Same fleet, same connection: the worker must still solve —
               cancellation, not death. *)
            let o = submit_ok c (Serve.job_spec ~depth:8 "echo") in
            Alcotest.(check string) "clean after timeout" "clean"
              o.Report.Journal.ob_verdict);
        [ w ])
      |> fun (ws, summary) ->
      List.iter Thread.join ws;
      ((), summary)
  in
  Alcotest.(check int) "one timeout" 1 summary.Shard.Coordinator.st_timeouts;
  Alcotest.(check int) "one completed" 1
    summary.Shard.Coordinator.st_completed;
  Alcotest.(check int) "worker survived its own timeout" 0
    summary.Shard.Coordinator.st_worker_deaths;
  check_balance summary

(* ---- no fleet: pending jobs get a typed error, not a hang ---- *)

let test_no_worker_pending_grace () =
  let (), summary =
    with_coord ~pending_grace_s:0.5 "noworker" (fun sock _srv ->
        with_client sock (fun c ->
            Serve.Client.send c
              (Serve.json_of_job_spec (Serve.job_spec ~depth:6 "echo"));
            ignore (Serve.Client.recv c) (* accepted *);
            let terminal = Serve.Client.recv c in
            Alcotest.(check string) "typed error frame" "error"
              (Report.Json.str_or ""
                 (Report.Json.member "frame" terminal));
            let msg =
              Report.Json.str_or ""
                (Report.Json.member "message" terminal)
            in
            Alcotest.(check bool) "message names the missing fleet" true
              (String.length msg > 0)))
  in
  Alcotest.(check int) "one error" 1 summary.Shard.Coordinator.st_errors;
  Alcotest.(check int) "nothing completed" 0
    summary.Shard.Coordinator.st_completed;
  check_balance summary

(* ---- per-job overhead ---- *)

(* A small job that takes a few milliseconds on the worker's pool, hit or
   miss: its builder, which run_batch forces, sleeps first. *)
let resolve_small_job spec =
  Result.map
    (fun (d, _) ->
      ( d,
        Aqed.Check.prepare_fc ~max_depth:spec.Serve.sj_depth ~cnt_width:8
          (fun () ->
            Unix.sleepf 0.005;
            echo ()) ))
    (resolve spec)

(* Nothing on the result path may wait for the heartbeat timer: with a
   50-ms beat, 40 back-to-back small jobs must finish inside 40 beats,
   and each job's reported wall must fit in what its client saw. *)
let test_no_heartbeat_rounding () =
  let jobs = 40 and step = 0.05 in
  let (total, walls), summary =
    with_coord "rounding" (fun sock _srv ->
        let w =
          start_worker ~name:"r1" ~heartbeat_s:step ~resolve:resolve_small_job
            sock
        in
        let r =
          with_client sock (fun c ->
              let t0 = Unix.gettimeofday () in
              let walls =
                List.init jobs (fun _ ->
                    let s = Unix.gettimeofday () in
                    match
                      Serve.Client.submit c (Serve.job_spec ~depth:6 "echo")
                    with
                    | Serve.Client.Completed (_, wall, _) ->
                      (wall, Unix.gettimeofday () -. s)
                    | _ -> Alcotest.fail "echo job did not complete")
              in
              (Unix.gettimeofday () -. t0, walls))
        in
        (r, w))
      |> fun ((r, w), summary) ->
      Thread.join w;
      (r, summary)
  in
  Alcotest.(check int) "all completed" jobs
    summary.Shard.Coordinator.st_completed;
  Alcotest.(check int) "no deaths" 0 summary.Shard.Coordinator.st_worker_deaths;
  Alcotest.(check int) "no requeues" 0 summary.Shard.Coordinator.st_requeued;
  Alcotest.(check int) "no stale results" 0
    summary.Shard.Coordinator.st_stale_results;
  if total >= float_of_int jobs *. step then
    Alcotest.failf "%d jobs took %.3fs: rounded up to heartbeat steps" jobs
      total;
  List.iteri
    (fun i (wall, seen) ->
      if wall > seen then
        Alcotest.failf "job %d reported wall %.4fs > client-observed %.4fs" i
          wall seen)
    walls;
  check_balance summary

(* ---- a heartbeat that trails its own result is not a dead worker ---- *)

(* A raw-socket worker: leases, answers its job, then sends a late
   heartbeat for the finished lease before leasing again. The
   coordinator must skip the heartbeat and hand out the next job. *)
let test_late_heartbeat_after_result () =
  let module Json = Report.Json in
  let payload =
    Report.Journal.json_of_obligation
      (Report.Journal.of_report ~design:"echo"
         (Aqed.Check.run_obligation (ob_fc ~depth:6 ())))
  in
  let fake_worker sock =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let r = Serve.Wire.reader fd in
    let send fields = Serve.Wire.send_frame fd (Json.Obj fields) in
    let lease () =
      send
        [ ("op", Json.Str "lease"); ("worker", Json.Str "raw");
          ("pid", Json.Int 0) ]
    in
    let next_frame () =
      match Serve.Wire.read_frame r with
      | Some j -> j
      | None -> Alcotest.fail "coordinator closed the worker connection"
    in
    let answer job =
      let id = Json.member "job" job and epoch = Json.member "epoch" job in
      send
        [ ("op", Json.Str "result"); ("worker", Json.Str "raw");
          ("job", id); ("epoch", epoch); ("outcome", Json.Str "done");
          ("wall_s", Json.Float 0.); ("obligation", payload) ];
      (id, epoch)
    in
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    lease ();
    let id, epoch = answer (next_frame ()) in
    send
      [ ("op", Json.Str "heartbeat"); ("worker", Json.Str "raw");
        ("job", id); ("epoch", epoch) ];
    lease ();
    let second = next_frame () in
    ignore (answer second);
    lease ();
    let last = next_frame () in
    ( Json.str_or "" (Json.member "frame" second),
      Json.str_or "" (Json.member "frame" last) )
  in
  let frames, summary =
    with_coord ~pending_grace_s:5. "lateheartbeat" (fun sock srv ->
        let result = ref ("", "") in
        let w = Thread.create (fun () -> result := fake_worker sock) () in
        with_client sock (fun c ->
            for _ = 1 to 2 do
              ignore (submit_ok c (Serve.job_spec ~depth:6 "echo"))
            done);
        Shard.Coordinator.stop srv;
        Thread.join w;
        !result)
  in
  Alcotest.(check (pair string string)) "next job, then drain"
    ("job", "drain") frames;
  Alcotest.(check int) "two completed" 2
    summary.Shard.Coordinator.st_completed;
  Alcotest.(check int) "no deaths" 0 summary.Shard.Coordinator.st_worker_deaths;
  check_balance summary

(* ---- malformed client line: typed error in fleet mode too ---- *)

(* The daemon's malformed-frame steps, against a coordinator: one reader
   serves both modes, so a garbled client line gets a typed [error]
   frame and a close, and the fleet keeps serving new clients. *)
let test_malformed_frame_isolation () =
  let (), summary =
    with_coord "malformed" (fun sock _srv ->
        let w = start_worker ~name:"m1" sock in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () ->
            try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            Unix.connect fd (Unix.ADDR_UNIX sock);
            let garbage = Bytes.of_string "this is not json\n" in
            ignore (Unix.write fd garbage 0 (Bytes.length garbage));
            let buf = Bytes.create 4096 in
            let n = Unix.read fd buf 0 (Bytes.length buf) in
            let j = Report.Json.of_string (String.trim (Bytes.sub_string buf 0 n)) in
            Alcotest.(check string) "typed error frame" "error"
              (Report.Json.str_or "" (Report.Json.member "frame" j));
            Alcotest.(check bool) "names the parse error" true
              (String.starts_with ~prefix:"parse error:"
                 (Report.Json.str_or "" (Report.Json.member "message" j)));
            Alcotest.(check int) "connection closed" 0
              (Unix.read fd buf 0 (Bytes.length buf)));
        with_client sock (fun c ->
            let o = submit_ok c (Serve.job_spec ~depth:8 "echo") in
            Alcotest.(check string) "fleet survived" "clean"
              o.Report.Journal.ob_verdict);
        [ w ])
      |> fun (ws, summary) ->
      List.iter Thread.join ws;
      ((), summary)
  in
  Alcotest.(check int) "one completed" 1 summary.Shard.Coordinator.st_completed;
  Alcotest.(check int) "no worker deaths" 0
    summary.Shard.Coordinator.st_worker_deaths;
  check_balance summary

(* ---- the mode boundary: what tells the two executors apart ---- *)

let status_keys c =
  match Serve.Client.status c with
  | Report.Json.Obj kvs -> List.map fst kvs
  | _ -> Alcotest.fail "status is not an object"

let common_keys =
  [ "frame"; "active"; "queued"; "capacity"; "accepted"; "completed";
    "timeouts"; "rejected"; "errors"; "draining" ]

(* In-process: exactly the ten common status keys, and a worker's
   [lease] op is an unknown op. Fleet: the ten plus seven fleet
   counters. Accounting balances in both. *)
let test_mode_boundary () =
  let sock = tmp_path "boundary.sock" in
  let srv =
    Serve.start
      (Serve.config ~workers:1 ~idle_timeout_s:10. ~resolve sock)
  in
  let lease_reply =
    Fun.protect
      ~finally:(fun () -> Serve.stop srv)
      (fun () ->
        with_client sock (fun c ->
            ignore (submit_ok c (Serve.job_spec ~depth:6 "echo"));
            Alcotest.(check (list string)) "in-process status keys"
              common_keys (status_keys c));
        with_client sock (fun c ->
            Serve.Client.send c
              (Report.Json.Obj
                 [ ("op", Report.Json.Str "lease");
                   ("worker", Report.Json.Str "w");
                   ("pid", Report.Json.Int 0) ]);
            Serve.Client.recv c))
  in
  let sm = Serve.wait srv in
  Alcotest.(check string) "lease is an error in-process" "error"
    (Report.Json.str_or "" (Report.Json.member "frame" lease_reply));
  Alcotest.(check string) "unknown op" {|unknown op "lease"|}
    (Report.Json.str_or "" (Report.Json.member "message" lease_reply));
  Alcotest.(check int) "in-process accepted = completed + timeouts + errors"
    sm.Serve.sm_accepted
    (sm.Serve.sm_completed + sm.Serve.sm_timeouts + sm.Serve.sm_errors);
  Alcotest.(check int) "one completed in-process" 1 sm.Serve.sm_completed;
  let keys, summary =
    with_coord "boundary" (fun sock _srv ->
        with_client sock status_keys)
  in
  Alcotest.(check (list string)) "fleet status keys"
    (common_keys
     @ [ "workers"; "leased"; "leases"; "steals"; "requeued";
         "worker_deaths"; "stale_results" ])
    keys;
  check_balance summary

let suite =
  ( "shard",
    [
      Alcotest.test_case "fleet parity vs direct solve (daemon client)"
        `Quick test_fleet_parity_vs_direct;
      Alcotest.test_case "worker-side deadline is a typed timeout" `Quick
        test_worker_deadline_typed_timeout;
      Alcotest.test_case "no worker: pending job gets a typed error" `Quick
        test_no_worker_pending_grace;
      Alcotest.test_case "no per-job heartbeat rounding (40 jobs, 50-ms beat)"
        `Quick test_no_heartbeat_rounding;
      Alcotest.test_case "late heartbeat after a result keeps the worker"
        `Quick test_late_heartbeat_after_result;
      Alcotest.test_case "malformed client line: typed error, fleet survives"
        `Quick test_malformed_frame_isolation;
      Alcotest.test_case "mode boundary: status keys and the lease op"
        `Quick test_mode_boundary;
    ] )

(* Tests of the benchmark's own helpers: the tail percentile, failure
   accounting, the known-answer checker and the seeded generator. *)

open Perfbench

let floats = Alcotest.(list (float 1e-12))

(* ---- Stats.tail ---- *)

let samples n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_rank () =
  (* 1..100: the 90th value has exactly 10 samples above it. *)
  match Stats.tail (samples 100) with
  | None -> Alcotest.fail "expected a tail"
  | Some t ->
    Alcotest.(check (float 0.)) "value" 90. t.Stats.value;
    Alcotest.(check (float 1e-9)) "percentile" 90. t.Stats.percentile;
    Alcotest.(check int) "n" 100 t.Stats.n;
    Alcotest.(check int) "beyond" 10 t.Stats.beyond

let test_tail_order_free () =
  let shuffled = [ 7.; 3.; 12.; 1.; 9.; 4.; 11.; 2.; 8.; 5.; 10.; 6. ] in
  match Stats.tail shuffled with
  | Some t -> Alcotest.(check (float 0.)) "2nd smallest of 12" 2. t.Stats.value
  | None -> Alcotest.fail "12 samples have a tail"

let test_tail_too_few () =
  Alcotest.(check bool) "10 samples: none" true (Stats.tail (samples 10) = None);
  Alcotest.(check bool) "11 samples: the minimum" true
    (match Stats.tail (samples 11) with Some t -> t.Stats.value = 1. | None -> false);
  let t = Stats.tail_or_max [ 3.; 9.; 4. ] in
  Alcotest.(check (float 0.)) "fallback is the max" 9. t.Stats.value;
  Alcotest.(check (float 0.)) "reported as p100" 100. t.Stats.percentile;
  Alcotest.(check int) "nothing beyond" 0 t.Stats.beyond

let test_median () =
  Alcotest.(check (float 0.)) "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  Alcotest.(check (float 0.)) "even" 2.5 (Stats.median [ 4.; 1.; 2.; 3. ]);
  Alcotest.check floats "sorted copy" [ 1.; 2.; 3. ]
    (Array.to_list (Stats.sorted [ 3.; 1.; 2. ]))

(* ---- Answers ---- *)

let test_checker () =
  let ok r = match r with Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "exact bug" true (ok (Answers.check ~expected:(Answers.Bug 8) (Answers.Bug 8)));
  Alcotest.(check bool) "exact clean" true
    (ok (Answers.check ~expected:(Answers.Clean 12) (Answers.Clean 12)));
  Alcotest.(check bool) "flipped to clean" false
    (ok (Answers.check ~expected:(Answers.Bug 8) (Answers.Clean 12)));
  Alcotest.(check bool) "flipped to bug" false
    (ok (Answers.check ~expected:(Answers.Clean 12) (Answers.Bug 12)));
  Alcotest.(check bool) "depth one short" false
    (ok (Answers.check ~expected:(Answers.Bug 8) (Answers.Bug 7)));
  Alcotest.(check bool) "depth one long" false
    (ok (Answers.check ~expected:(Answers.Bug 8) (Answers.Bug 9)));
  Alcotest.(check bool) "clean bound off by one" false
    (ok (Answers.check ~expected:(Answers.Clean 12) (Answers.Clean 11)))

let test_accounting () =
  let expected = Answers.Bug 5 in
  let record t o = Answers.record t ~label:"job" ~expected o in
  let t =
    List.fold_left record Answers.empty
      [
        Answers.Completed (Answers.Bug 5, Ok ());
        Answers.Timed_out;
        Answers.Busy;
        Answers.Refused "unknown design";
        Answers.Completed (Answers.Clean 12, Ok ());
        (* a wrong verdict that also fails its confirmation counts once *)
        Answers.Completed (Answers.Bug 6, Error "does not replay");
        Answers.Completed (Answers.Bug 5, Error "does not replay");
      ]
  in
  Alcotest.(check int) "attempted" 7 t.Answers.attempted;
  Alcotest.(check int) "timeouts" 1 t.Answers.timeouts;
  Alcotest.(check int) "busy" 1 t.Answers.busy;
  Alcotest.(check int) "refused" 1 t.Answers.refused;
  Alcotest.(check int) "mismatches" 3 t.Answers.mismatches;
  Alcotest.(check int) "failed" 6 (Answers.failed t);
  Alcotest.(check (float 1e-12)) "failed_frac" (6. /. 7.) (Answers.failed_frac t);
  Alcotest.(check int) "one note per failure" 6 (List.length t.Answers.notes);
  Alcotest.(check (float 0.)) "nothing attempted" 0. (Answers.failed_frac Answers.empty)

(* ---- Catalog ---- *)

let jobs = lazy (Catalog.load "../expected.txt")

let test_catalog () =
  let jobs = Lazy.force jobs in
  let n pool = List.length (Catalog.pool pool jobs) in
  Alcotest.(check bool) "a few cold obligations" true (n "cold" >= 2);
  Alcotest.(check bool) "at least 40 fleet obligations" true (n "fleet" >= 40);
  let labels = List.map (fun j -> j.Catalog.label) jobs in
  Alcotest.(check int) "labels unique" (List.length labels)
    (List.length (List.sort_uniq compare labels));
  List.iter
    (fun j ->
      match j.Catalog.answer with
      | Answers.Clean k ->
        Alcotest.(check int) (j.Catalog.label ^ ": clean at the bound")
          j.Catalog.spec.Serve.sj_depth k
      | Answers.Bug d ->
        Alcotest.(check bool) (j.Catalog.label ^ ": bug within the bound") true
          (d >= 1 && d <= j.Catalog.spec.Serve.sj_depth))
    jobs

let test_parse_rejects () =
  let bad text =
    match Catalog.parse text with
    | _ -> false
    | exception Failure _ -> true
  in
  Alcotest.(check bool) "unknown verdict" true (bad "fleet fig2 - fc 6 maybe 6");
  Alcotest.(check bool) "unknown pool" true (bad "hot fig2 - fc 6 clean 6");
  Alcotest.(check bool) "missing column" true (bad "fleet fig2 - fc 6 clean");
  Alcotest.(check int) "comments and blanks skipped" 1
    (List.length (Catalog.parse "# c\n\n  fleet fig2 - fc 6 clean 6\n"))

let test_served_stream () =
  let jobs = Lazy.force jobs in
  let labels s = List.map (fun j -> j.Catalog.label) s in
  let s1 = Catalog.served_stream (Random.State.make [| 7 |]) jobs in
  let s2 = Catalog.served_stream (Random.State.make [| 7 |]) jobs in
  let s3 = Catalog.served_stream (Random.State.make [| 8 |]) jobs in
  Alcotest.(check (list string)) "same seed, same stream" (labels s1) (labels s2);
  Alcotest.(check bool) "another seed, another order" true (labels s1 <> labels s3);
  Alcotest.(check bool) "at least 200 jobs" true (List.length s1 >= 200);
  let dirty = List.filter (fun j -> j.Catalog.pool = "dirty") s1 in
  let share = float_of_int (List.length dirty) /. float_of_int (List.length s1) in
  Alcotest.(check bool) "about a tenth dirty" true (share >= 0.08 && share <= 0.12);
  Alcotest.(check int) "dirty jobs distinct" (List.length dirty)
    (List.length (List.sort_uniq compare (labels dirty)));
  let stored = Catalog.pool "cold" jobs @ Catalog.pool "fleet" jobs in
  List.iter
    (fun j ->
      Alcotest.(check bool) (j.Catalog.label ^ " repeats") true
        (List.length (List.filter (fun x -> x.Catalog.label = j.Catalog.label) s1) > 1))
    stored

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail rank" `Quick test_tail_rank;
          Alcotest.test_case "tail ignores order" `Quick test_tail_order_free;
          Alcotest.test_case "tail with too few samples" `Quick test_tail_too_few;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "answers",
        [
          Alcotest.test_case "checker rejects flips and off-by-one" `Quick test_checker;
          Alcotest.test_case "failed_frac counts each failure once" `Quick test_accounting;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "expected answers well-formed" `Quick test_catalog;
          Alcotest.test_case "parser rejects malformed lines" `Quick test_parse_rejects;
          Alcotest.test_case "served stream is seeded" `Quick test_served_stream;
        ] );
    ]

(* The obligations the workloads draw from, and the seeded generators that
   turn a seed into a job stream. The program under test only ever sees
   the generated [Serve.job_spec]s. *)

type job = {
  pool : string;            (** "cold" | "fleet" | "dirty" *)
  spec : Serve.job_spec;
  answer : Answers.verdict;
  label : string;           (** e.g. "memctrl-fifo/fifo_out_early/RB@12" *)
}

let label_of (s : Serve.job_spec) =
  Printf.sprintf "%s%s/%s@%d" s.Serve.sj_design
    (match s.Serve.sj_bug with Some b -> "/" ^ b | None -> "")
    (String.uppercase_ascii s.Serve.sj_check)
    s.Serve.sj_depth

let parse_line lineno line =
  let fields =
    String.split_on_char ' ' line |> List.filter (fun f -> f <> "")
  in
  let fail () =
    failwith (Printf.sprintf "expected answers, line %d: %S" lineno line)
  in
  match fields with
  | [ pool; design; bug; check; bound; kind; depth ] ->
    let bound = match int_of_string_opt bound with Some k -> k | None -> fail () in
    let answer =
      match Answers.verdict_of_strings kind depth with
      | Some v -> v
      | None -> fail ()
    in
    if not (List.mem pool [ "cold"; "fleet"; "dirty" ]) then fail ();
    let bug = if bug = "-" then None else Some bug in
    let spec = Serve.job_spec ?bug ~check ~depth:bound design in
    { pool; spec; answer; label = label_of spec }
  | _ -> fail ()

(* Blank lines and [#] comments are skipped; a malformed line fails. *)
let parse text =
  String.split_on_char '\n' text
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter (fun (_, l) -> l <> "" && l.[0] <> '#')
  |> List.map (fun (i, l) -> parse_line i l)

let load path = parse (In_channel.with_open_text path In_channel.input_all)

let pool name jobs = List.filter (fun j -> j.pool = name) jobs

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rec take n = function
  | x :: tl when n > 0 -> x :: take (n - 1) tl
  | _ -> []

(* warm-served: every pre-filled obligation five times (its first
   occurrence is a revalidated store hit, the rest in-process cache hits),
   plus dirty jobs drawn without replacement, about one in ten of the
   stream. The seed picks the dirty jobs and the order. *)
let served_stream rng jobs =
  let stored = pool "cold" jobs @ pool "fleet" jobs in
  let repeated = List.concat (List.init 5 (fun _ -> stored)) in
  let n_dirty = (List.length repeated + 8) / 9 in
  let dirty = take n_dirty (shuffle rng (pool "dirty" jobs)) in
  shuffle rng (repeated @ dirty)

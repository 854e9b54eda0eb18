(* Known answers and failure accounting.

   Every job a workload submits ends in exactly one [outcome]; a job
   counts as failed when it timed out, was rejected busy, was refused
   with a typed error, or completed with a verdict or depth that
   disagrees with its known answer. *)

type verdict = Bug of int | Clean of int

let verdict_to_string = function
  | Bug d -> Printf.sprintf "bug@%d" d
  | Clean k -> Printf.sprintf "clean@%d" k

let verdict_of_strings kind depth =
  match (kind, int_of_string_opt depth) with
  | "bug", Some d -> Some (Bug d)
  | "clean", Some k -> Some (Clean k)
  | _ -> None

(* A completed verdict must match the known answer exactly: the same kind
   and the same counterexample length or clean bound. *)
let check ~expected got =
  if expected = got then Ok ()
  else
    Error
      (Printf.sprintf "expected %s, got %s" (verdict_to_string expected)
         (verdict_to_string got))

type outcome =
  | Completed of verdict * (unit, string) result
      (** the verdict, and the result of its independent confirmation
          (simulator replay of a counterexample, structural-key equality) *)
  | Timed_out
  | Busy
  | Refused of string

type tally = {
  attempted : int;
  timeouts : int;
  busy : int;
  refused : int;
  mismatches : int;
  notes : string list;  (** one line per failed job, newest first *)
}

let empty =
  { attempted = 0; timeouts = 0; busy = 0; refused = 0; mismatches = 0;
    notes = [] }

(* Account one attempted job. Each failure kind is exclusive, so a job is
   counted failed at most once whatever went wrong with it. *)
let record t ~label ~expected outcome =
  let t = { t with attempted = t.attempted + 1 } in
  let note msg = (label ^ ": " ^ msg) :: t.notes in
  match outcome with
  | Timed_out -> { t with timeouts = t.timeouts + 1; notes = note "timeout" }
  | Busy -> { t with busy = t.busy + 1; notes = note "busy" }
  | Refused m -> { t with refused = t.refused + 1; notes = note ("refused: " ^ m) }
  | Completed (got, confirmed) -> (
      match Result.bind (check ~expected got) (fun () -> confirmed) with
      | Ok () -> t
      | Error m -> { t with mismatches = t.mismatches + 1; notes = note m })

let failed t = t.timeouts + t.busy + t.refused + t.mismatches

let failed_frac t =
  if t.attempted = 0 then 0. else float_of_int (failed t) /. float_of_int t.attempted

(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Median with the usual midpoint for an even count; [nan] when empty. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type tail = {
  value : float;
  percentile : float;  (** the percentile [value] sits at, in 0..100 *)
  n : int;             (** samples the tail was taken over *)
  beyond : int;        (** samples strictly above [value]'s rank *)
}

(* Samples a tail percentile must leave beyond it. *)
let min_beyond = 10

(* The highest percentile that still has at least [min_beyond] samples
   beyond it: the order statistic of rank [n - min_beyond] (1-based), so
   exactly [min_beyond] samples rank above it. [None] when there are not
   enough samples for any such percentile. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = n - min_beyond in
  if rank < 1 then None
  else
    Some
      {
        value = a.(rank - 1);
        percentile = 100. *. float_of_int rank /. float_of_int n;
        n;
        beyond = min_beyond;
      }

(* [tail], falling back to the maximum when the sample is too small for
   any percentile to have [min_beyond] samples beyond it. *)
let tail_or_max xs =
  match tail xs with
  | Some t -> t
  | None ->
    let a = sorted xs in
    let n = Array.length a in
    {
      value = (if n = 0 then Float.nan else a.(n - 1));
      percentile = 100.;
      n;
      beyond = 0;
    }

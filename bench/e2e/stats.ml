(* Order statistics, computed the way Python's [statistics.quantiles]
   (default "exclusive" method) and [statistics.median] do, so numbers
   printed here match a recomputation from the raw samples. *)

let sorted (xs : float list) : float array =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(** The [p]-quantile (0 < p < 1) of sorted [a]: linear interpolation at
    1-based position p(n+1), clamped to the sample range. *)
let quantile (a : float array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = Float.min (Float.max (p *. float_of_int (n + 1)) 1.0) (float_of_int n) in
    let lo = int_of_float pos in
    if lo >= n then a.(n - 1)
    else a.(lo - 1) +. ((pos -. float_of_int lo) *. (a.(lo) -. a.(lo - 1)))

let median (xs : float list) : float = quantile (sorted xs) 0.5

(** (first quartile, median, third quartile). *)
let quartiles (xs : float list) : float * float * float =
  let a = sorted xs in
  (quantile a 0.25, quantile a 0.5, quantile a 0.75)

(** The highest of the usual reporting percentiles that leaves at least
    ten samples beyond it among [n] samples (50 when none does). *)
let tail_percentile (n : int) : float =
  (* In per mille, so the count beyond is exact integer arithmetic. *)
  match List.find_opt (fun pm -> n * (1000 - pm) >= 10_000) [ 999; 990; 950; 900; 750 ] with
  | Some pm -> float_of_int pm /. 10.0
  | None -> 50.0

let percentile (xs : float list) (p : float) : float = quantile (sorted xs) (p /. 100.0)

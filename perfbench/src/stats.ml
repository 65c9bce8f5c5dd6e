let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between closest ranks, as numpy's default. *)
let quantile a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (n - 1) (i + 1) in
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(j) -. a.(i)))

let median xs = quantile (sorted xs) 0.5

(* The mean of what is left after the lowest and highest [trim] share
   of the values are set aside: steadier than the median over a few
   dozen values, and, unlike the mean, not swung by one far-off value. *)
let trimmed_mean ?(trim = 0.2) xs =
  let a = sorted xs in
  let n = Array.length a in
  let k = int_of_float (trim *. float_of_int n) in
  if n = 0 then nan
  else
    let kept = Array.sub a k (n - (2 * k)) in
    Array.fold_left ( +. ) 0. kept /. float_of_int (Array.length kept)

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

type tail = { label : string; value : float; samples : int }

(* The highest percentile that still has at least ten samples beyond it,
   100 (1 - 10/n) — taken continuously, so it does not jump as the
   sample count drifts across a run. Below 20 samples no percentile
   above the median has, and the median stands in. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  let p = Float.max 50. (100. *. (1. -. (10. /. float_of_int n))) in
  { label = Printf.sprintf "p%.4g" p; value = quantile a (p /. 100.); samples = n }

(* A fixed percentile, for sample counts too small for [tail]. *)
let percentile xs p =
  let a = sorted xs in
  { label = Printf.sprintf "p%g" p; value = quantile a (p /. 100.); samples = Array.length a }

let ratio num den = if den = 0. then 0. else num /. den

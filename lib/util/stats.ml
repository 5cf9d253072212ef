let sum a = Array.fold_left ( +. ) 0.0 a

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else sum a /. float_of_int n

let variance a =
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
    acc /. float_of_int n

let std a = sqrt (variance a)

let sample_std a =
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let m = mean a in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 a in
    sqrt (acc /. float_of_int (n - 1))

let min_ a = if Array.length a = 0 then 0.0 else Array.fold_left min a.(0) a
let max_ a = if Array.length a = 0 then 0.0 else Array.fold_left max a.(0) a

let is_nondecreasing a =
  let rec go i = i >= Array.length a || (Float.compare a.(i - 1) a.(i) <= 0 && go (i + 1)) in
  go 1

(* Sorted series (trace timestamps) are the common case: skip the sort when
   the copy is already in the order the sort would produce. *)
let sorted_copy a =
  let b = Array.copy a in
  if not (is_nondecreasing b) then Array.stable_sort Float.compare b;
  b

let percentile_sorted sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else if n = 1 then sorted.(0)
  else begin
    let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else
      let frac = rank -. float_of_int lo in
      sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let percentile a p = percentile_sorted (sorted_copy a) p
let median a = percentile a 50.0

let quantiles a ps =
  let sorted = sorted_copy a in
  List.map (percentile_sorted sorted) ps

let iqr_bounds a =
  if Array.length a = 0 then invalid_arg "Stats.iqr_bounds: empty input";
  let sorted = sorted_copy a in
  let q1 = percentile_sorted sorted 25.0 and q3 = percentile_sorted sorted 75.0 in
  let iqr = q3 -. q1 in
  (q1 -. (1.5 *. iqr), q3 +. (1.5 *. iqr))

let mean_std a = (mean a, sample_std a)

let skewness a =
  let n = Array.length a in
  if n < 3 then 0.0
  else
    let m = mean a and s = std a in
    if s = 0.0 then 0.0
    else
      let acc = Array.fold_left (fun acc x -> acc +. (((x -. m) /. s) ** 3.0)) 0.0 a in
      acc /. float_of_int n

let kurtosis a =
  let n = Array.length a in
  if n < 4 then 0.0
  else
    let m = mean a and s = std a in
    if s = 0.0 then 0.0
    else
      let acc = Array.fold_left (fun acc x -> acc +. (((x -. m) /. s) ** 4.0)) 0.0 a in
      (acc /. float_of_int n) -. 3.0

let mad a =
  if Array.length a = 0 then 0.0
  else
    let m = median a in
    median (Array.map (fun x -> Float.abs (x -. m)) a)

let cumulative a =
  let n = Array.length a in
  let out = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. a.(i);
    out.(i) <- !acc
  done;
  out

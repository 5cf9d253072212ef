module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Rng = Stob_util.Rng

(* Only the region a split can reorder is list-built and sorted.  On sorted
   input a second half lands at most 1e-7 s after packet [bound - 1], so the
   tail from the first index >= [bound] at or past that time keeps its place
   and is copied unchanged.  On unsorted input the region is the whole
   trace. *)
let split ?(threshold = 1200) ?first_n trace =
  let n = Trace.length trace in
  let bound = min n (Option.value ~default:n first_n) in
  let region_end =
    if not (Trace.is_sorted trace) then n
    else if bound <= 0 then 0
    else
      let limit = trace.(bound - 1).Trace.time +. 1e-7 in
      let rec scan j = if j < n && Float.compare trace.(j).Trace.time limit < 0 then scan (j + 1) else j in
      scan bound
  in
  let out = ref [] in
  for i = region_end - 1 downto 0 do
    let e = trace.(i) in
    if i < bound && e.Trace.dir = Packet.Incoming && e.Trace.size > threshold then begin
      let first = e.Trace.size / 2 in
      let second = e.Trace.size - first in
      (* The second half leaves immediately after the first; a negligible
         offset keeps the trace strictly ordered without shifting later
         packets (the paper treats the split as instantaneous). *)
      out := { e with Trace.size = first } :: { e with Trace.size = second; time = e.Trace.time +. 1e-7 } :: !out
    end
    else out := e :: !out
  done;
  let region = Trace.sort (Array.of_list !out) in
  if region_end = n then region else Array.append region (Array.sub trace region_end (n - region_end))

(* Events from [bound] on are shifted by the final offset.  With
   non-negative factors a sorted input stays sorted, and [Trace.sort] then
   only copies it. *)
let delay ?(lo = 0.1) ?(hi = 0.3) ?first_n ~rng trace =
  let bound = Option.value ~default:(Trace.length trace) first_n in
  let offset = ref 0.0 in
  let shifted =
    Array.mapi
      (fun i (e : Trace.event) ->
        if i < bound && i > 0 && e.Trace.dir = Packet.Incoming then begin
          let gap = e.Trace.time -. trace.(i - 1).Trace.time in
          offset := !offset +. (gap *. Rng.uniform rng lo hi)
        end;
        { e with Trace.time = e.Trace.time +. !offset })
      trace
  in
  Trace.sort shifted

let combined ?threshold ?lo ?hi ?first_n ~rng trace =
  delay ?lo ?hi ?first_n ~rng (split ?threshold ?first_n trace)

(* Hierarchical timing wheel with an exact-order ready heap.

   The kernel-style wheel buys O(1) amortized scheduling, but a naive wheel
   orders events only up to tick granularity — and the engine's contract is
   exact (time, sequence) order, bit-identical to the heap oracle.  The
   design that preserves both:

   - An event's [tick] is [trunc (time / granularity)].  Truncation (not
     floor) is fine: it is monotone in [time], which is all the ordering
     argument needs.
   - Events with [tick <= cursor] live in a small binary heap (the "ready
     heap") ordered by exact (time, seq).  Everything the caller can pop
     next is in there, so pops are exact even when many distinct times
     collapse into one tick, when a callback pushes at or before the
     current instant, or when raw pushes go backwards in time.
   - Events with [tick > cursor] whose tick fits in the wheel's
     [levels * bits]-bit horizon above the cursor hang off the slot of
     their highest block that differs from the cursor's.  Per-level
     occupancy bitmaps make "next occupied slot" a couple of word scans.
   - Events beyond the horizon wait in an [overflow] list; when the wheel
     drains, the cursor is rebased onto the earliest overflow tick and the
     list is re-placed (rare by construction: the horizon is 2^32 ticks —
     over twelve simulated days at the default 256 µs granularity).

   Invariant (the reason slot scans never wrap): every wheel entry at level
   [k] has blocks above [k] equal to the cursor's, and its block [k]
   strictly greater than the cursor's.  Advancing the cursor cascades the
   drained slot's entries to lower levels (or to the ready heap), restoring
   the invariant. *)

(* [tick] is cached at push time: an entry is re-placed once per level it
   cascades through, and the float multiply + truncation is the expensive
   part of placement. *)
type 'a entry = { time : float; seq : int; tick : int; value : 'a }

let bits = 8
let wheel_slots = 1 lsl bits (* 256 *)
let slot_mask = wheel_slots - 1
let levels = 4
let horizon_bits = levels * bits
let words_per_level = wheel_slots / 64

type 'a t = {
  granularity : float;
  inv_granularity : float;
  mutable next_seq : int;
  mutable len : int;
  (* Ready heap: all entries with tick <= cursor, exact (time, seq) order.
     Keys live in parallel unboxed arrays — on this compiler a float field
     of a mixed record is a pointer to a boxed double, so keeping the sift
     keys in a flat [float array] spares every comparison a dereference. *)
  mutable ready_times : float array;
  mutable ready_seqs : int array;
  mutable ready_entries : 'a entry array;
  mutable ready_len : int;
  slots : 'a entry list array array; (* slots.(level).(slot) *)
  bitmaps : int64 array array; (* bitmaps.(level).(slot / 64) *)
  counts : int array; (* live wheel entries per level *)
  mutable overflow : 'a entry list;
  mutable overflow_count : int;
  mutable cursor : int;
}

let default_granularity = 256e-6

let create ?(granularity = default_granularity) () =
  if not (granularity > 0.0) then
    invalid_arg "Timing_wheel.create: granularity must be positive";
  {
    granularity;
    inv_granularity = 1.0 /. granularity;
    next_seq = 0;
    len = 0;
    ready_times = [||];
    ready_seqs = [||];
    ready_entries = [||];
    ready_len = 0;
    slots = Array.init levels (fun _ -> Array.make wheel_slots []);
    bitmaps = Array.init levels (fun _ -> Array.make words_per_level 0L);
    counts = Array.make levels 0;
    overflow = [];
    overflow_count = 0;
    cursor = 0;
  }

let size t = t.len
let is_empty t = t.len = 0

(* Ticks clamp before [int_of_float] leaves defined territory; clamped
   events simply ride the overflow path. *)
let max_tick_float = 4.0e18

let tick t time =
  let x = time *. t.inv_granularity in
  if x >= max_tick_float then max_int
  else if x <= -.max_tick_float then min_int
  else int_of_float x

let ready_grow t entry =
  let cap = Array.length t.ready_entries in
  let cap' = if cap = 0 then 64 else cap * 2 in
  let times = Array.make cap' 0.0 in
  let seqs = Array.make cap' 0 in
  let entries = Array.make cap' entry in
  Array.blit t.ready_times 0 times 0 t.ready_len;
  Array.blit t.ready_seqs 0 seqs 0 t.ready_len;
  Array.blit t.ready_entries 0 entries 0 t.ready_len;
  t.ready_times <- times;
  t.ready_seqs <- seqs;
  t.ready_entries <- entries

(* Both sift loops bubble a hole instead of swapping, with the moving
   element's key held in registers: one store per level plus the final
   placement. *)
let ready_push t entry =
  if t.ready_len = Array.length t.ready_entries then ready_grow t entry;
  let times = t.ready_times and seqs = t.ready_seqs and entries = t.ready_entries in
  let time = entry.time and seq = entry.seq in
  let i = ref t.ready_len in
  t.ready_len <- !i + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = times.(parent) in
    if time < pt || (time = pt && seq < seqs.(parent)) then begin
      times.(!i) <- pt;
      seqs.(!i) <- seqs.(parent);
      entries.(!i) <- entries.(parent);
      i := parent
    end
    else continue := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  entries.(!i) <- entry

let ready_pop t =
  let times = t.ready_times and seqs = t.ready_seqs and entries = t.ready_entries in
  let top = entries.(0) in
  let n = t.ready_len - 1 in
  t.ready_len <- n;
  if n > 0 then begin
    let time = times.(n) and seq = seqs.(n) and last = entries.(n) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let left = (2 * !i) + 1 in
      if left >= n then continue := false
      else begin
        let right = left + 1 in
        let child =
          if
            right < n
            && (times.(right) < times.(left)
               || (times.(right) = times.(left) && seqs.(right) < seqs.(left)))
          then right
          else left
        in
        let ct = times.(child) in
        if ct < time || (ct = time && seqs.(child) < seq) then begin
          times.(!i) <- ct;
          seqs.(!i) <- seqs.(child);
          entries.(!i) <- entries.(child);
          i := child
        end
        else continue := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    entries.(!i) <- last
  end;
  top

let block tk level = (tk asr (level * bits)) land slot_mask

let place t entry =
  let tk = entry.tick in
  if tk <= t.cursor then ready_push t entry
  else begin
    let diff = tk lxor t.cursor in
    if diff asr horizon_bits <> 0 then begin
      t.overflow <- entry :: t.overflow;
      t.overflow_count <- t.overflow_count + 1
    end
    else begin
      (* Highest block where tick and cursor differ; the compare chain
         hardcodes bits = 8, levels = 4 (one compare for the common
         near-future case instead of a top-down loop). *)
      let k = if diff <= 0xFF then 0 else if diff <= 0xFFFF then 1 else if diff <= 0xFF_FFFF then 2 else 3 in
      let s = block tk k in
      t.slots.(k).(s) <- entry :: t.slots.(k).(s);
      t.bitmaps.(k).(s lsr 6) <-
        Int64.logor t.bitmaps.(k).(s lsr 6) (Int64.shift_left 1L (s land 63));
      t.counts.(k) <- t.counts.(k) + 1
    end
  end

let push t ~time value =
  let entry = { time; seq = t.next_seq; tick = tick t time; value } in
  t.next_seq <- t.next_seq + 1;
  t.len <- t.len + 1;
  place t entry

let ctz64 x =
  let n = ref 0 and x = ref x in
  if Int64.logand !x 0xFFFFFFFFL = 0L then begin
    n := !n + 32;
    x := Int64.shift_right_logical !x 32
  end;
  if Int64.logand !x 0xFFFFL = 0L then begin
    n := !n + 16;
    x := Int64.shift_right_logical !x 16
  end;
  if Int64.logand !x 0xFFL = 0L then begin
    n := !n + 8;
    x := Int64.shift_right_logical !x 8
  end;
  if Int64.logand !x 0xFL = 0L then begin
    n := !n + 4;
    x := Int64.shift_right_logical !x 4
  end;
  if Int64.logand !x 0x3L = 0L then begin
    n := !n + 2;
    x := Int64.shift_right_logical !x 2
  end;
  if Int64.logand !x 0x1L = 0L then incr n;
  !n

(* Smallest occupied slot index >= [from], or -1. *)
let find_slot bitmap ~from =
  let rec go w =
    if w >= words_per_level then -1
    else
      let word = bitmap.(w) in
      let word =
        if w = from lsr 6 then Int64.logand word (Int64.shift_left Int64.minus_one (from land 63))
        else word
      in
      if word = 0L then go (w + 1) else (w lsl 6) + ctz64 word
  in
  go (from lsr 6)

(* Pull the next batch of due entries into the ready heap.  No-op unless
   the ready heap is empty while wheel/overflow entries remain. *)
let rec refill t =
  if t.ready_len = 0 && t.len > 0 then begin
    let k = ref 0 in
    while !k < levels && t.counts.(!k) = 0 do
      incr k
    done;
    if !k < levels then begin
      let k = !k in
      (* The placement invariant puts every occupied slot of the lowest
         non-empty level strictly beyond the cursor's block, so the scan
         never wraps and never misses. *)
      let s = find_slot t.bitmaps.(k) ~from:(block t.cursor k + 1) in
      assert (s >= 0);
      t.cursor <- t.cursor land (-1 lsl ((k + 1) * bits)) lor (s lsl (k * bits));
      let entries = t.slots.(k).(s) in
      t.slots.(k).(s) <- [];
      t.bitmaps.(k).(s lsr 6) <-
        Int64.logand t.bitmaps.(k).(s lsr 6)
          (Int64.lognot (Int64.shift_left 1L (s land 63)));
      (* Level 0: every entry has tick = cursor and lands in ready.  Higher
         levels: entries cascade to lower levels (or ready) and we loop. *)
      let rec drain n = function
        | [] -> n
        | e :: rest ->
            place t e;
            drain (n + 1) rest
      in
      t.counts.(k) <- t.counts.(k) - drain 0 entries;
      refill t
    end
    else begin
      (* Wheel empty: rebase the cursor onto the earliest overflow tick and
         re-place the whole list (entries still beyond the new horizon go
         straight back to overflow). *)
      match t.overflow with
      | [] -> () (* unreachable: len counts ready + wheel + overflow *)
      | es ->
          t.overflow <- [];
          t.overflow_count <- 0;
          t.cursor <- List.fold_left (fun acc e -> min acc e.tick) max_int es;
          List.iter (fun e -> place t e) es;
          refill t
    end
  end

let peek t =
  refill t;
  if t.ready_len = 0 then None
  else Some (t.ready_times.(0), t.ready_entries.(0).value)

let pop t =
  refill t;
  if t.ready_len = 0 then None
  else begin
    let top = ready_pop t in
    t.len <- t.len - 1;
    Some (top.time, top.value)
  end

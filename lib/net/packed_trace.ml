(* Compact trace storage: two bigarray lanes instead of an array of boxed
   event records.  12 bytes/event (8 time + 4 direction|size) vs ~40 for
   the record array, with prefixes as zero-copy views — what lets the
   population factory hold a shard of traces, not a corpus.  This is a
   codec, not a second trace API: consumers convert back with [to_trace]. *)

module BA1 = Bigarray.Array1

type times_lane = (float, Bigarray.float64_elt, Bigarray.c_layout) BA1.t
type meta_lane = (int32, Bigarray.int32_elt, Bigarray.c_layout) BA1.t

(* Treat values as immutable: views share storage. *)
type t = { times : times_lane; meta : meta_lane }

let alloc n =
  { times = BA1.create Bigarray.float64 Bigarray.c_layout n;
    meta = BA1.create Bigarray.int32 Bigarray.c_layout n }

let empty = alloc 0

let length t = BA1.dim t.times

let of_trace (tr : Trace.t) =
  let n = Array.length tr in
  let p = alloc n in
  for i = 0 to n - 1 do
    let e = tr.(i) in
    BA1.unsafe_set p.times i e.Trace.time;
    BA1.unsafe_set p.meta i (Arena.encode ~dir:e.Trace.dir ~size:e.Trace.size)
  done;
  p

let to_trace t =
  Array.init (length t) (fun i ->
      let m = BA1.unsafe_get t.meta i in
      { Trace.time = BA1.unsafe_get t.times i; dir = Arena.decode_dir m; size = Arena.decode_size m })

let of_arena arena =
  let p = alloc (Arena.length arena) in
  Arena.blit arena ~times:p.times ~meta:p.meta;
  p

let prefix t n =
  if n >= length t then t
  else
    let n = max n 0 in
    { times = BA1.sub t.times 0 n; meta = BA1.sub t.meta 0 n }

(* Binary framing for journal payloads: magic, little-endian u32 count,
   raw float64 times, raw int32 meta words. *)
let magic = "SPKT1\x00"

let to_bytes t =
  let n = length t in
  let b = Bytes.create (String.length magic + 4 + (n * 12)) in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int32_le b (String.length magic) (Int32.of_int n);
  let off_t = String.length magic + 4 in
  let off_m = off_t + (n * 8) in
  for i = 0 to n - 1 do
    Bytes.set_int64_le b (off_t + (i * 8)) (Int64.bits_of_float (BA1.unsafe_get t.times i));
    Bytes.set_int32_le b (off_m + (i * 4)) (BA1.unsafe_get t.meta i)
  done;
  Bytes.unsafe_to_string b

let of_bytes s =
  let fail why = failwith ("Packed_trace.of_bytes: " ^ why) in
  let mlen = String.length magic in
  if String.length s < mlen + 4 || String.sub s 0 mlen <> magic then fail "bad magic";
  let n = Int32.to_int (String.get_int32_le s mlen) in
  if n < 0 || String.length s <> mlen + 4 + (n * 12) then fail "bad length";
  let p = alloc n in
  let off_t = mlen + 4 in
  let off_m = off_t + (n * 8) in
  for i = 0 to n - 1 do
    BA1.unsafe_set p.times i (Int64.float_of_bits (String.get_int64_le s (off_t + (i * 8))));
    BA1.unsafe_set p.meta i (String.get_int32_le s (off_m + (i * 4)))
  done;
  p

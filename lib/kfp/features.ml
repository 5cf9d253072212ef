module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Stats = Stob_util.Stats

(* Packets per concentration chunk, as in the original attack. *)
let chunk_size = 20

(* Evenly-spaced subsample of an arbitrary-length series, padded with 0. *)
let put_sampled put n series =
  let len = Array.length series in
  for i = 0 to n - 1 do
    put (if len = 0 then 0.0 else series.(min (i * len / n) (len - 1)))
  done

(* Size bands (wire bytes) counted per direction. *)
let size_bands = [| 100; 300; 600; 900; 1200; 1500 |]

let put_band_counts put sizes =
  let counts = Array.make (Array.length size_bands) 0.0 in
  Array.iter
    (fun s ->
      let rec place i =
        if i >= Array.length size_bands - 1 then counts.(Array.length size_bands - 1) <- counts.(Array.length size_bands - 1) +. 1.0
        else if s <= float_of_int size_bands.(i) then counts.(i) <- counts.(i) +. 1.0
        else place (i + 1)
      in
      place 0)
    sizes;
  Array.iter put counts

(* Burst lengths: maximal runs of consecutive same-direction packets. *)
let burst_lengths trace dir =
  let bursts = ref [] and current = ref 0 in
  Array.iter
    (fun e ->
      if e.Trace.dir = dir then incr current
      else if !current > 0 then begin
        bursts := float_of_int !current :: !bursts;
        current := 0
      end)
    trace;
  if !current > 0 then bursts := float_of_int !current :: !bursts;
  Array.of_list (List.rev !bursts)

(* Counting fold — the seed materialized the matching elements through an
   [Array.to_list -> List.filter -> Array.of_list] round-trip just to take
   a length. *)
let count_ge bursts threshold =
  Array.fold_left (fun acc b -> if b >= threshold then acc +. 1.0 else acc) 0.0 bursts

let concentration trace =
  let n = Trace.length trace in
  let n_chunks = (n + chunk_size - 1) / chunk_size in
  Array.init n_chunks (fun c ->
      let lo = c * chunk_size and hi = min n ((c + 1) * chunk_size) in
      let count = ref 0 in
      for i = lo to hi - 1 do
        if trace.(i).Trace.dir = Packet.Outgoing then incr count
      done;
      float_of_int !count)

let packets_per_bucket trace ~bucket =
  let n = Trace.length trace in
  if n = 0 then [||]
  else begin
    let duration = Trace.duration trace in
    let buckets = max 1 (1 + int_of_float (duration /. bucket)) in
    let counts = Array.make buckets 0.0 in
    let t0 = trace.(0).Trace.time in
    Array.iter
      (fun e ->
        let b = min (buckets - 1) (int_of_float ((e.Trace.time -. t0) /. bucket)) in
        counts.(b) <- counts.(b) +. 1.0)
      trace;
    counts
  end

(* Positions (indices) of packets of one direction within the trace. *)
let positions trace dir =
  let pos = Array.make (Trace.count ~dir trace) 0.0 and j = ref 0 in
  Array.iteri
    (fun i e ->
      if e.Trace.dir = dir then begin
        pos.(!j) <- float_of_int i;
        incr j
      end)
    trace;
  pos

let safe_frac num den = if den = 0.0 then 0.0 else num /. den

(* Built once at load time; [extract] writes its values in this order. *)
let names =
  let block prefix suffixes = List.map (fun s -> prefix ^ "." ^ s) suffixes in
  let indexed prefix n = List.init n (Printf.sprintf "%s.%02d" prefix) in
  let stats prefix = block prefix [ "mean"; "std"; "median"; "min"; "max" ] in
  let dirs f = List.concat_map f [ "total"; "in"; "out" ] in
  Array.of_list
    (List.concat
       [
         block "count" [ "total"; "in"; "out"; "frac_in"; "frac_out" ];
         block "bytes" [ "total"; "in"; "out"; "frac_in" ];
         stats "size.in";
         stats "size.out";
         dirs (fun d -> block ("iat." ^ d) [ "max"; "mean"; "std"; "p75" ]);
         dirs (fun d -> block ("time." ^ d) [ "p25"; "p50"; "p75"; "p100" ]);
         block "order" [ "out.mean"; "out.std"; "in.mean"; "in.std" ];
         stats "conc";
         [ "conc.sum" ];
         indexed "conc.sample" 20;
         stats "pps";
         indexed "pps.sample" 20;
         [ "first30.in"; "first30.out"; "last30.in"; "last30.out" ];
         List.concat_map
           (fun d -> block ("burst." ^ d) [ "count"; "mean"; "max"; "ge5"; "ge10" ])
           [ "out"; "in" ];
         indexed "band.in" (Array.length size_bands);
         indexed "band.out" (Array.length size_bands);
         [ "duration" ];
         indexed "cumul" 20;
       ])

let dimension = Array.length names

(* Values go straight into one preallocated vector.  Each series is sorted
   at most once (in [Stats]); the timestamps of a sorted trace are already
   in order, so their four percentiles sort nothing. *)
let extract trace =
  let v = Array.make dimension 0.0 and k = ref 0 in
  let put x =
    v.(!k) <- x;
    incr k
  in
  let count dir t = float_of_int (Trace.count ~dir t) in
  let n = float_of_int (Trace.length trace)
  and n_in = count Packet.Incoming trace
  and n_out = count Packet.Outgoing trace
  and bytes_total = float_of_int (Trace.bytes trace)
  and bytes_in = float_of_int (Trace.bytes ~dir:Packet.Incoming trace)
  and bytes_out = float_of_int (Trace.bytes ~dir:Packet.Outgoing trace)
  and sizes_in = Trace.sizes ~dir:Packet.Incoming trace
  and sizes_out = Trace.sizes ~dir:Packet.Outgoing trace in
  let stats a = List.iter put [ Stats.mean a; Stats.std a; Stats.median a; Stats.min_ a; Stats.max_ a ] in
  (* 1. counts *)
  List.iter put [ n; n_in; n_out; safe_frac n_in n; safe_frac n_out n ];
  (* 2. bytes and size stats *)
  List.iter put [ bytes_total; bytes_in; bytes_out; safe_frac bytes_in bytes_total ];
  stats sizes_in;
  stats sizes_out;
  (* 3. inter-arrival stats, 4. transmission-time percentiles (relative to
     the first packet of either direction) *)
  let dirs = [ None; Some Packet.Incoming; Some Packet.Outgoing ] in
  List.iter
    (fun dir ->
      let gaps = Trace.interarrivals ?dir trace in
      List.iter put [ Stats.max_ gaps; Stats.mean gaps; Stats.std gaps; Stats.percentile gaps 75.0 ])
    dirs;
  let t0 = if Trace.length trace = 0 then 0.0 else trace.(0).Trace.time in
  List.iter
    (fun dir ->
      let rel = Array.map (fun t -> t -. t0) (Trace.times ?dir trace) in
      List.iter put (Stats.quantiles rel [ 25.0; 50.0; 75.0; 100.0 ]))
    dirs;
  (* 5. ordering *)
  let pos_out = positions trace Packet.Outgoing and pos_in = positions trace Packet.Incoming in
  List.iter put [ Stats.mean pos_out; Stats.std pos_out; Stats.mean pos_in; Stats.std pos_in ];
  (* 6. concentration of outgoing packets (20-packet chunks) *)
  let conc = concentration trace in
  stats conc;
  put (Stats.sum conc);
  put_sampled put 20 conc;
  (* 7. packets per 0.25 s *)
  let pps = packets_per_bucket trace ~bucket:0.25 in
  stats pps;
  put_sampled put 20 pps;
  (* 8. first/last 30 packets *)
  let len = Trace.length trace in
  let first30 = Trace.prefix trace 30 and last30 = if len <= 30 then trace else Array.sub trace (len - 30) 30 in
  List.iter put
    [ count Packet.Incoming first30; count Packet.Outgoing first30; count Packet.Incoming last30;
      count Packet.Outgoing last30 ];
  (* 9. bursts *)
  List.iter
    (fun dir ->
      let bursts = burst_lengths trace dir in
      List.iter put
        [ float_of_int (Array.length bursts); Stats.mean bursts; Stats.max_ bursts; count_ge bursts 5.0;
          count_ge bursts 10.0 ])
    [ Packet.Outgoing; Packet.Incoming ];
  (* 10. size bands *)
  put_band_counts put sizes_in;
  put_band_counts put sizes_out;
  (* 11. duration *)
  put (Trace.duration trace);
  (* 12. CUMUL-style sampled cumulative signed size *)
  put_sampled put 20 (Stats.cumulative (Trace.signed_sizes trace));
  assert (!k = dimension);
  v

let extract_packed pt = extract (Stob_net.Packed_trace.to_trace pt)

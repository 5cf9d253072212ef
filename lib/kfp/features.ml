module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Stats = Stob_util.Stats

let chunk_size = 20

(* Evenly-spaced subsample of an arbitrary-length series, padded with 0. *)
let sampled n series =
  let len = Array.length series in
  Array.init n (fun i ->
      if len = 0 then 0.0
      else
        let idx = i * len / n in
        series.(min idx (len - 1)))

(* Size bands (wire bytes) counted per direction. *)
let size_bands = [| 100; 300; 600; 900; 1200; 1500 |]

let band_counts sizes =
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
  Array.to_list counts

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
  let pos = ref [] in
  Array.iteri (fun i e -> if e.Trace.dir = dir then pos := float_of_int i :: !pos) trace;
  Array.of_list (List.rev !pos)

let safe_frac num den = if den = 0.0 then 0.0 else num /. den

(* Timestamps of one direction (or all), relative to the first packet. *)
let rel_times ?dir trace =
  let ts = Trace.times ?dir trace in
  if Trace.length trace = 0 then [||]
  else
    let t0 = trace.(0).Trace.time in
    Array.map (fun t -> t -. t0) ts

let time_percentiles ?dir trace =
  let times = rel_times ?dir trace in
  List.map
    (fun (name, p) -> (name, Stats.percentile times p))
    [ ("p25", 25.0); ("p50", 50.0); ("p75", 75.0); ("p100", 100.0) ]

let interarrival_block ?dir trace =
  let gaps = Trace.interarrivals ?dir trace in
  [ ("max", Stats.max_ gaps); ("mean", Stats.mean gaps); ("std", Stats.std gaps);
    ("p75", Stats.percentile gaps 75.0) ]

let named_features trace =
  let count dir t = float_of_int (Trace.count ~dir t)
  and bytes dir = float_of_int (Trace.bytes ~dir trace) in
  let n = float_of_int (Trace.length trace)
  and n_in = count Packet.Incoming trace
  and n_out = count Packet.Outgoing trace
  and bytes_total = float_of_int (Trace.bytes trace)
  and bytes_in = bytes Packet.Incoming
  and bytes_out = bytes Packet.Outgoing
  and sizes_in = Trace.sizes ~dir:Packet.Incoming trace
  and sizes_out = Trace.sizes ~dir:Packet.Outgoing trace
  and pos_out = positions trace Packet.Outgoing
  and pos_in = positions trace Packet.Incoming
  and conc = concentration trace
  and pps = packets_per_bucket trace ~bucket:0.25
  and bursts_out = burst_lengths trace Packet.Outgoing
  and bursts_in = burst_lengths trace Packet.Incoming
  and cumul = Stats.cumulative (Trace.signed_sizes trace) in
  let first30 = Trace.prefix trace 30 in
  let last30 =
    let len = Trace.length trace in
    if len <= 30 then trace else Array.sub trace (len - 30) 30
  in
  let block name values = List.map (fun (suffix, v) -> (name ^ "." ^ suffix, v)) values in
  let stats_named prefix a =
    block prefix
      [ ("mean", Stats.mean a); ("std", Stats.std a); ("median", Stats.median a);
        ("min", Stats.min_ a); ("max", Stats.max_ a) ]
  in
  let indexed prefix values =
    List.mapi (fun i v -> (Printf.sprintf "%s.%02d" prefix i, v)) (Array.to_list values)
  in
  List.concat
    [
      (* 1. counts *)
      [
        ("count.total", n);
        ("count.in", n_in);
        ("count.out", n_out);
        ("count.frac_in", safe_frac n_in n);
        ("count.frac_out", safe_frac n_out n);
      ];
      (* 2. bytes and size stats *)
      [
        ("bytes.total", bytes_total);
        ("bytes.in", bytes_in);
        ("bytes.out", bytes_out);
        ("bytes.frac_in", safe_frac bytes_in bytes_total);
      ];
      stats_named "size.in" sizes_in;
      stats_named "size.out" sizes_out;
      (* 3. inter-arrival stats *)
      block "iat.total" (interarrival_block trace);
      block "iat.in" (interarrival_block ~dir:Packet.Incoming trace);
      block "iat.out" (interarrival_block ~dir:Packet.Outgoing trace);
      (* 4. transmission-time percentiles *)
      block "time.total" (time_percentiles trace);
      block "time.in" (time_percentiles ~dir:Packet.Incoming trace);
      block "time.out" (time_percentiles ~dir:Packet.Outgoing trace);
      (* 5. ordering *)
      [
        ("order.out.mean", Stats.mean pos_out);
        ("order.out.std", Stats.std pos_out);
        ("order.in.mean", Stats.mean pos_in);
        ("order.in.std", Stats.std pos_in);
      ];
      (* 6. concentration of outgoing packets (20-packet chunks) *)
      stats_named "conc" conc;
      [ ("conc.sum", Stats.sum conc) ];
      indexed "conc.sample" (sampled 20 conc);
      (* 7. packets per 0.25 s *)
      stats_named "pps" pps;
      indexed "pps.sample" (sampled 20 pps);
      (* 8. first/last 30 packets *)
      [
        ("first30.in", count Packet.Incoming first30);
        ("first30.out", count Packet.Outgoing first30);
        ("last30.in", count Packet.Incoming last30);
        ("last30.out", count Packet.Outgoing last30);
      ];
      (* 9. bursts *)
      [
        ("burst.out.count", float_of_int (Array.length bursts_out));
        ("burst.out.mean", Stats.mean bursts_out);
        ("burst.out.max", Stats.max_ bursts_out);
        ("burst.out.ge5", count_ge bursts_out 5.0);
        ("burst.out.ge10", count_ge bursts_out 10.0);
        ("burst.in.count", float_of_int (Array.length bursts_in));
        ("burst.in.mean", Stats.mean bursts_in);
        ("burst.in.max", Stats.max_ bursts_in);
        ("burst.in.ge5", count_ge bursts_in 5.0);
        ("burst.in.ge10", count_ge bursts_in 10.0);
      ];
      (* 10. size bands *)
      List.mapi
        (fun i v -> (Printf.sprintf "band.in.%02d" i, v))
        (band_counts sizes_in);
      List.mapi
        (fun i v -> (Printf.sprintf "band.out.%02d" i, v))
        (band_counts sizes_out);
      (* 11. duration *)
      [ ("duration", Trace.duration trace) ];
      (* 12. CUMUL-style sampled cumulative signed size *)
      indexed "cumul" (sampled 20 cumul);
    ]

(* The names are fixed; compute them once from an empty trace. *)
let names = Array.of_list (List.map fst (named_features Trace.empty))

let dimension = Array.length names

let extract trace = Array.of_list (List.map snd (named_features trace))
let extract_packed pt = extract (Stob_net.Packed_trace.to_trace pt)

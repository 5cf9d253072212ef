(* Tests for stob_net: packets, traces, capture. *)

module Packet = Stob_net.Packet
module Trace = Stob_net.Trace
module Capture = Stob_net.Capture

let ev time dir size = { Trace.time; dir; size }
let out = Packet.Outgoing
let inc = Packet.Incoming

let sample_trace () =
  [|
    ev 0.0 out 60; ev 0.01 inc 60; ev 0.02 out 52; ev 0.03 out 200; ev 0.05 inc 1500;
    ev 0.06 inc 1500; ev 0.07 out 52; ev 0.09 inc 800;
  |]

(* --- Packet --- *)

let test_packet_wire_size () =
  let p = Packet.data ~flow:1 ~dir:out ~seq:0 ~ack:0 ~payload:1000 ~rwnd:65535 () in
  Alcotest.(check int) "wire size" (1000 + Packet.default_header_bytes) (Packet.wire_size p)

let test_packet_seq_end () =
  let d = Packet.data ~flow:1 ~dir:out ~seq:100 ~ack:0 ~payload:50 ~rwnd:1 () in
  Alcotest.(check int) "data end" 150 (Packet.seq_end d);
  let f = Packet.data ~flow:1 ~dir:out ~seq:100 ~ack:0 ~payload:50 ~fin:true ~rwnd:1 () in
  Alcotest.(check int) "fin adds one" 151 (Packet.seq_end f);
  let s = Packet.syn ~flow:1 ~dir:out ~seq:0 ~rwnd:1 () in
  Alcotest.(check int) "syn occupies one" 1 (Packet.seq_end s)

let test_packet_dummy_seq () =
  let d = Packet.data ~flow:1 ~dir:out ~seq:100 ~ack:0 ~payload:500 ~dummy:true ~rwnd:1 () in
  Alcotest.(check int) "dummy consumes no sequence space" 100 (Packet.seq_end d)

let test_packet_syn_flags () =
  let s = Packet.syn ~flow:1 ~dir:out ~seq:0 ~rwnd:1 () in
  Alcotest.(check bool) "plain syn has no ack" false s.Packet.is_ack;
  let sa = Packet.syn ~flow:1 ~dir:inc ~seq:0 ~ack:(Some 1) ~rwnd:1 () in
  Alcotest.(check bool) "syn|ack has ack" true sa.Packet.is_ack;
  Alcotest.(check int) "ack number" 1 sa.Packet.ack

let test_direction_sign () =
  Alcotest.(check int) "out" 1 (Packet.direction_sign out);
  Alcotest.(check int) "in" (-1) (Packet.direction_sign inc);
  Alcotest.(check bool) "opposite" true (Packet.opposite out = inc)

(* --- Trace --- *)

let test_trace_counts () =
  let t = sample_trace () in
  Alcotest.(check int) "total" 8 (Trace.length t);
  Alcotest.(check int) "out" 4 (Trace.count ~dir:out t);
  Alcotest.(check int) "in" 4 (Trace.count ~dir:inc t)

let test_trace_bytes () =
  let t = sample_trace () in
  Alcotest.(check int) "out bytes" 364 (Trace.bytes ~dir:out t);
  Alcotest.(check int) "in bytes" 3860 (Trace.bytes ~dir:inc t);
  Alcotest.(check int) "all bytes" 4224 (Trace.bytes t)

let test_trace_prefix () =
  let t = sample_trace () in
  Alcotest.(check int) "prefix 3" 3 (Trace.length (Trace.prefix t 3));
  Alcotest.(check int) "prefix beyond" 8 (Trace.length (Trace.prefix t 100));
  Alcotest.(check int) "prefix 0" 0 (Trace.length (Trace.prefix t 0))

let test_trace_duration () =
  Alcotest.(check (float 1e-9)) "duration" 0.09 (Trace.duration (sample_trace ()));
  Alcotest.(check (float 1e-9)) "single event" 0.0 (Trace.duration [| ev 1.0 out 10 |])

let test_trace_interarrivals () =
  let t = [| ev 0.0 out 1; ev 0.5 out 1; ev 1.5 inc 1 |] in
  Alcotest.(check (array (float 1e-9))) "gaps" [| 0.5; 1.0 |] (Trace.interarrivals t);
  Alcotest.(check (array (float 1e-9))) "out gaps" [| 0.5 |] (Trace.interarrivals ~dir:out t)

let test_trace_sort_stable () =
  let t = [| ev 1.0 out 1; ev 0.5 inc 2; ev 0.5 out 3 |] in
  let s = Trace.sort t in
  Alcotest.(check bool) "sorted" true (Trace.is_sorted s);
  (* The two 0.5 events keep their relative order. *)
  Alcotest.(check int) "stable first" 2 s.(0).Trace.size;
  Alcotest.(check int) "stable second" 3 s.(1).Trace.size

let test_trace_shift_to_zero () =
  let t = Trace.shift_to_zero [| ev 5.0 out 1; ev 6.0 inc 2 |] in
  Alcotest.(check (float 1e-9)) "starts at 0" 0.0 t.(0).Trace.time;
  Alcotest.(check (float 1e-9)) "gap preserved" 1.0 t.(1).Trace.time

let test_trace_signed_sizes () =
  let t = [| ev 0.0 out 100; ev 0.1 inc 200 |] in
  Alcotest.(check (array (float 0.0))) "signed" [| 100.0; -200.0 |] (Trace.signed_sizes t)

let test_trace_csv_roundtrip () =
  let t = sample_trace () in
  let t' = Trace.of_csv (Trace.to_csv t) in
  Alcotest.(check int) "length" (Trace.length t) (Trace.length t');
  Array.iteri
    (fun i e ->
      Alcotest.(check (float 1e-6)) "time" e.Trace.time t'.(i).Trace.time;
      Alcotest.(check int) "size" e.Trace.size t'.(i).Trace.size;
      Alcotest.(check bool) "dir" true (e.Trace.dir = t'.(i).Trace.dir))
    t

let test_trace_csv_malformed () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Trace.of_csv "1.0,5,100\n");
       false
     with Failure _ -> true)

let test_trace_concat_sorted () =
  let a = [| ev 0.0 out 1; ev 2.0 out 2 |] and b = [| ev 1.0 inc 3 |] in
  let m = Trace.concat_sorted [ a; b ] in
  Alcotest.(check bool) "sorted" true (Trace.is_sorted m);
  Alcotest.(check int) "merged length" 3 (Trace.length m);
  Alcotest.(check int) "middle is b's" 3 m.(1).Trace.size

(* --- Capture --- *)

let test_capture_records () =
  let c = Capture.create () in
  Capture.record c ~time:0.1 (Packet.data ~flow:1 ~dir:out ~seq:0 ~ack:0 ~payload:100 ~rwnd:1 ());
  Capture.record c ~time:0.05 (Packet.data ~flow:2 ~dir:inc ~seq:0 ~ack:0 ~payload:200 ~rwnd:1 ());
  let t = Capture.trace c in
  Alcotest.(check int) "count" 2 (Capture.count c);
  Alcotest.(check bool) "sorted output" true (Trace.is_sorted t);
  Alcotest.(check int) "first is earliest" (200 + Packet.default_header_bytes) t.(0).Trace.size

let test_capture_clear () =
  let c = Capture.create () in
  Capture.record c ~time:0.0 (Packet.pure_ack ~flow:1 ~dir:out ~seq:0 ~ack:0 ~rwnd:1 ());
  Capture.clear c;
  Alcotest.(check int) "cleared" 0 (Capture.count c)

(* --- qcheck --- *)

let arbitrary_trace =
  QCheck.make
    ~print:(fun t -> Trace.to_csv t)
    QCheck.Gen.(
      list_size (int_range 0 60)
        (map3
           (fun t d s ->
             { Trace.time = t; dir = (if d then out else inc); size = 40 + s })
           (float_range 0.0 10.0) bool (int_range 0 1460))
      |> map (fun evs -> Trace.sort (Array.of_list evs)))

let prop_prefix_is_prefix =
  QCheck.Test.make ~name:"prefix preserves leading events" ~count:200
    QCheck.(pair arbitrary_trace small_nat)
    (fun (t, n) ->
      let p = Trace.prefix t n in
      Trace.length p = min n (Trace.length t)
      && Array.for_all2 (fun a b -> a = b) p (Array.sub t 0 (Trace.length p)))

let prop_concat_length =
  QCheck.Test.make ~name:"concat_sorted preserves events" ~count:100
    QCheck.(pair arbitrary_trace arbitrary_trace)
    (fun (a, b) ->
      let m = Trace.concat_sorted [ a; b ] in
      Trace.length m = Trace.length a + Trace.length b
      && Trace.is_sorted m
      && Trace.bytes m = Trace.bytes a + Trace.bytes b)

let prop_csv_roundtrip =
  QCheck.Test.make ~name:"csv roundtrip preserves bytes and counts" ~count:100 arbitrary_trace
    (fun t ->
      let t' = Trace.of_csv (Trace.to_csv t) in
      Trace.length t = Trace.length t' && Trace.bytes t = Trace.bytes t')

(* --- Packed traces: the storage codec round-trips the record array --- *)

module Packed = Stob_net.Packed_trace
module Arena = Stob_net.Arena

(* Messy on purpose: unsorted, duplicate and negative timestamps, zero
   sizes — the codec must round-trip all of it, not just well-formed
   captures. *)
let arbitrary_messy_trace =
  QCheck.make
    ~print:(fun t -> Trace.to_csv t)
    QCheck.Gen.(
      list_size (int_range 0 80)
        (map3
           (fun t d s -> { Trace.time = t; dir = (if d then out else inc); size = s })
           (oneof [ float_range (-2.0) 10.0; return 0.0; return 1.5 ])
           bool
           (oneof [ int_range 0 1500; return 0 ]))
      |> map Array.of_list)

let prop_packed_roundtrip =
  QCheck.Test.make ~name:"packed round-trip is the identity" ~count:300 arbitrary_messy_trace
    (fun t -> Packed.to_trace (Packed.of_trace t) = t)

let prop_packed_bytes_roundtrip =
  QCheck.Test.make ~name:"packed binary codec round-trips bit-exactly" ~count:300
    arbitrary_messy_trace (fun t ->
      let p = Packed.of_trace t in
      Packed.to_trace (Packed.of_bytes (Packed.to_bytes p)) = t)

let test_packed_views () =
  let t = Trace.sort (sample_trace ()) in
  let p = Packed.of_trace t in
  Alcotest.(check int) "prefix view length" 3 (Packed.length (Packed.prefix p 3));
  Alcotest.(check bool) "prefix view contents" true
    (Packed.to_trace (Packed.prefix p 4) = Trace.prefix t 4);
  Alcotest.(check bool) "prefix beyond the end" true (Packed.prefix p 1000 == p);
  Alcotest.(check bool) "negative prefix is empty" true (Packed.length (Packed.prefix p (-1)) = 0);
  Alcotest.(check bool) "empty" true (Packed.to_trace Packed.empty = [||]);
  Alcotest.(check bool) "malformed bytes rejected" true
    (try
       ignore (Packed.of_bytes "not a packed trace");
       false
     with Failure _ -> true)

let test_arena_build () =
  (* A 3-event chunk forces multiple spills on an 8-event trace. *)
  let t = Trace.sort (sample_trace ()) in
  let a = Arena.create ~chunk_events:3 () in
  Array.iter (fun e -> Arena.add a ~time:e.Trace.time ~dir:e.Trace.dir ~size:e.Trace.size) t;
  Alcotest.(check int) "length" (Trace.length t) (Arena.length a);
  Alcotest.(check bool) "of_arena equals of_trace" true
    (Packed.to_trace (Packed.of_arena a) = t);
  Arena.reset a;
  Alcotest.(check int) "reset empties" 0 (Arena.length a);
  (* Reuse after reset: recycled chunks must not leak stale events. *)
  Arena.add a ~time:42.0 ~dir:out ~size:99;
  let p = Packed.of_arena a in
  Alcotest.(check bool) "reuse after reset" true
    (Packed.to_trace p = [| ev 42.0 out 99 |]);
  Alcotest.(check bool) "size range enforced" true
    (try
       Arena.add a ~time:0.0 ~dir:out ~size:(-1);
       false
     with Invalid_argument _ -> true)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "net.packet",
      [
        Alcotest.test_case "wire size" `Quick test_packet_wire_size;
        Alcotest.test_case "seq end" `Quick test_packet_seq_end;
        Alcotest.test_case "dummy sequence space" `Quick test_packet_dummy_seq;
        Alcotest.test_case "syn flags" `Quick test_packet_syn_flags;
        Alcotest.test_case "direction sign" `Quick test_direction_sign;
      ] );
    ( "net.trace",
      [
        Alcotest.test_case "counts" `Quick test_trace_counts;
        Alcotest.test_case "bytes" `Quick test_trace_bytes;
        Alcotest.test_case "prefix" `Quick test_trace_prefix;
        Alcotest.test_case "duration" `Quick test_trace_duration;
        Alcotest.test_case "interarrivals" `Quick test_trace_interarrivals;
        Alcotest.test_case "stable sort" `Quick test_trace_sort_stable;
        Alcotest.test_case "shift to zero" `Quick test_trace_shift_to_zero;
        Alcotest.test_case "signed sizes" `Quick test_trace_signed_sizes;
        Alcotest.test_case "csv roundtrip" `Quick test_trace_csv_roundtrip;
        Alcotest.test_case "csv malformed" `Quick test_trace_csv_malformed;
        Alcotest.test_case "concat sorted" `Quick test_trace_concat_sorted;
        q prop_prefix_is_prefix;
        q prop_concat_length;
        q prop_csv_roundtrip;
      ] );
    ( "net.capture",
      [
        Alcotest.test_case "records" `Quick test_capture_records;
        Alcotest.test_case "clear" `Quick test_capture_clear;
      ] );
    ( "net.packed",
      [
        Alcotest.test_case "zero-copy views" `Quick test_packed_views;
        Alcotest.test_case "arena build/reset" `Quick test_arena_build;
        q prop_packed_roundtrip;
        q prop_packed_bytes_roundtrip;
      ] );
  ]

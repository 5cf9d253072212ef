(* Tests for stob_defense: Section 3 emulation, literature defenses,
   overhead metrics, Table 1 registry. *)

module Rng = Stob_util.Rng
module Trace = Stob_net.Trace
module Packet = Stob_net.Packet
module Oracle = Stob_oracle.Hot_path
open Stob_defense

let ev time dir size = { Trace.time; dir; size }
let out = Packet.Outgoing
let inc = Packet.Incoming

let web_like_trace () =
  (* Handshake-ish small packets, then big downloads with some out acks. *)
  Array.init 100 (fun i ->
      if i < 4 then ev (float_of_int i *. 0.02) (if i mod 2 = 0 then out else inc) 300
      else
        let dir = if i mod 6 = 0 then out else inc in
        ev (0.08 +. (float_of_int i *. 0.01)) dir (if dir = out then 92 else 1452))

(* --- Emulate.split --- *)

let test_split_conserves_bytes () =
  let t = web_like_trace () in
  let s = Emulate.split t in
  Alcotest.(check int) "incoming bytes conserved" (Trace.bytes ~dir:inc t) (Trace.bytes ~dir:inc s);
  Alcotest.(check int) "outgoing untouched" (Trace.bytes ~dir:out t) (Trace.bytes ~dir:out s)

let test_split_caps_sizes () =
  let s = Emulate.split (web_like_trace ()) in
  Array.iter
    (fun e ->
      if e.Trace.dir = inc then Alcotest.(check bool) "capped" true (e.Trace.size <= 1200))
    s

let test_split_only_incoming () =
  let t = [| ev 0.0 out 1500; ev 0.1 inc 1500 |] in
  let s = Emulate.split t in
  Alcotest.(check int) "one outgoing still" 1 (Trace.count ~dir:out s);
  Alcotest.(check int) "incoming split in two" 2 (Trace.count ~dir:inc s);
  (* The outgoing packet keeps its size: the defense is server-side. *)
  Array.iter
    (fun e -> if e.Trace.dir = out then Alcotest.(check int) "unsplit" 1500 e.Trace.size)
    s

let test_split_first_n_only () =
  let t = Array.init 20 (fun i -> ev (float_of_int i) inc 1500) in
  let s = Emulate.split ~first_n:5 t in
  (* 5 split packets -> 10, remaining 15 untouched. *)
  Alcotest.(check int) "length" 25 (Trace.length s);
  let big = Array.to_list s |> List.filter (fun e -> e.Trace.size > 1200) in
  Alcotest.(check int) "15 still large" 15 (List.length big)

let test_split_threshold_boundary () =
  let t = [| ev 0.0 inc 1200; ev 0.1 inc 1201 |] in
  let s = Emulate.split t in
  Alcotest.(check int) "only above threshold splits" 3 (Trace.length s)

let test_split_sorted () =
  let s = Emulate.split (web_like_trace ()) in
  Alcotest.(check bool) "sorted" true (Trace.is_sorted s)

(* --- Emulate.delay --- *)

let test_delay_never_earlier () =
  let t = web_like_trace () in
  let d = Emulate.delay ~rng:(Rng.create 1) t in
  Alcotest.(check int) "same packet count" (Trace.length t) (Trace.length d);
  Array.iteri
    (fun i e -> Alcotest.(check bool) "time moved forward" true (e.Trace.time >= t.(i).Trace.time))
    d

let test_delay_preserves_sizes () =
  let t = web_like_trace () in
  let d = Emulate.delay ~rng:(Rng.create 2) t in
  Array.iteri (fun i e -> Alcotest.(check int) "size" t.(i).Trace.size e.Trace.size) d

let test_delay_stretches_duration () =
  let t = web_like_trace () in
  let d = Emulate.delay ~rng:(Rng.create 3) t in
  Alcotest.(check bool) "longer" true (Trace.duration d > Trace.duration t);
  (* Cumulative stretch is bounded by 30 % of the total duration plus some
     slack for the leading gap. *)
  Alcotest.(check bool) "bounded" true (Trace.duration d < Trace.duration t *. 1.5)

let test_delay_first_n_constant_tail_shift () =
  let t = Array.init 30 (fun i -> ev (float_of_int i *. 0.1) inc 1000) in
  let d = Emulate.delay ~first_n:10 ~rng:(Rng.create 4) t in
  (* After the prefix, all gaps revert to the original 0.1. *)
  let gaps = Trace.interarrivals d in
  for i = 12 to 28 do
    Alcotest.(check (float 1e-9)) "tail gap unchanged" 0.1 gaps.(i - 1)
  done

(* The prefix-aware [split] (only the region up to the first packet at or
   past t(first_n - 1) + 1e-7 is rebuilt) and the skip-if-sorted [delay]
   against the whole-trace versions in [Oracle.Emulate].  The traces are
   full of ties and near-ties within 1e-7 s, so a tail boundary placed one
   packet too early shows up.  Both sides draw from their own generator of
   the same seed; the next draw must match too, since [Dataset.map_traces]
   threads one generator through every sample. *)
let test_emulate_matches_oracle () =
  let near_tie =
    (* Packet 14 is split; its second half at t + 1e-7 ties packet 17. *)
    let t = 0.5 in
    Array.init 20 (fun i ->
        if i < 14 then ev (float_of_int i *. 0.01) out 60
        else ev (match i with 14 | 15 -> t | 16 -> t +. 5e-8 | 17 -> t +. 1e-7 | 18 -> t +. 1.5e-7 | _ -> t +. 1.0) inc 1500)
  in
  List.iteri
    (fun i t ->
      let len = Trace.length t in
      List.iter
        (fun first_n ->
          let name what =
            Printf.sprintf "trace %d (%d events) %s first_n=%s" i len what
              (Option.fold ~none:"all" ~some:string_of_int first_n)
          in
          let check what old_f new_f =
            let old_rng = Rng.create i and new_rng = Rng.create i in
            Alcotest.(check (list string)) (name what) (Trace_gen.render (old_f old_rng t))
              (Trace_gen.render (new_f new_rng t));
            Alcotest.(check int64) (name what ^ " next draw") (Rng.bits64 old_rng) (Rng.bits64 new_rng)
          in
          check "split" (fun _ t -> Oracle.Emulate.split ?first_n t) (fun _ t -> Emulate.split ?first_n t);
          check "delay" (fun rng t -> Oracle.Emulate.delay ?first_n ~rng t) (fun rng t -> Emulate.delay ?first_n ~rng t);
          check "combined"
            (fun rng t -> Oracle.Emulate.combined ?first_n ~rng t)
            (fun rng t -> Emulate.combined ?first_n ~rng t))
        [ None; Some 0; Some 1; Some 15; Some (len - 1); Some len; Some (len + 5) ])
    (near_tie :: Trace_gen.corpus ~seed:13 150)

let test_combined_splits_and_delays () =
  let t = web_like_trace () in
  let c = Emulate.combined ~rng:(Rng.create 5) t in
  Alcotest.(check bool) "more packets" true (Trace.length c > Trace.length t);
  Alcotest.(check bool) "longer" true (Trace.duration c > Trace.duration t);
  Alcotest.(check int) "incoming bytes conserved" (Trace.bytes ~dir:inc t) (Trace.bytes ~dir:inc c)

(* --- FRONT --- *)

let test_front_adds_dummies_both_directions () =
  let t = web_like_trace () in
  let f = Front.apply ~rng:(Rng.create 6) t in
  Alcotest.(check bool) "more packets" true (Trace.length f > Trace.length t);
  Alcotest.(check bool) "added out" true (Trace.count ~dir:out f > Trace.count ~dir:out t);
  Alcotest.(check bool) "added in" true (Trace.count ~dir:inc f > Trace.count ~dir:inc t)

let test_front_zero_latency () =
  let t = web_like_trace () in
  let f = Front.apply ~rng:(Rng.create 7) t in
  (* Real packets keep their timestamps: FRONT is zero-delay. *)
  let originals = Array.to_list t in
  List.iter
    (fun (e : Trace.event) ->
      Alcotest.(check bool) "original event present" true (Array.exists (fun e' -> e' = e) f))
    originals;
  Alcotest.(check bool) "duration not extended" true
    (Trace.duration f <= Trace.duration t +. 1e-9)

let test_front_bandwidth_overhead_order () =
  (* Across a small corpus, FRONT's bandwidth overhead is tens of percent
     or more (the paper cites ~80%). *)
  let rng = Rng.create 8 in
  let overheads =
    List.init 10 (fun _ ->
        let t = web_like_trace () in
        Overhead.bandwidth_overhead ~original:t ~defended:(Front.apply ~rng t))
  in
  let mean = List.fold_left ( +. ) 0.0 overheads /. 10.0 in
  Alcotest.(check bool) (Printf.sprintf "mean overhead %.2f > 0.2" mean) true (mean > 0.2)

(* --- BuFLO --- *)

let test_buflo_constant_rate () =
  let b = Buflo.apply (web_like_trace ()) in
  let gaps_in = Trace.interarrivals ~dir:inc b in
  Array.iter
    (fun g -> Alcotest.(check (float 1e-9)) "constant interval" 0.004 g)
    gaps_in;
  Array.iter (fun e -> Alcotest.(check int) "fixed size" 1500 e.Trace.size) b

let test_buflo_minimum_duration () =
  let tiny = [| ev 0.0 out 100; ev 0.01 inc 2000 |] in
  let b = Buflo.apply tiny in
  Alcotest.(check bool) "padded to tau" true (Trace.duration b >= 9.9)

let test_buflo_carries_real_bytes () =
  let t = web_like_trace () in
  let b = Buflo.apply t in
  Alcotest.(check bool) "incoming capacity >= real bytes" true
    (Trace.bytes ~dir:inc b >= Trace.bytes ~dir:inc t)

let test_buflo_uniform_output () =
  (* Two very different traces yield the same stream when volumes fit under
     the tau-floor: regularization. *)
  let small1 = [| ev 0.0 inc 5000; ev 0.1 out 300 |] in
  let small2 = [| ev 0.0 inc 9000; ev 0.3 out 800; ev 0.5 inc 100 |] in
  let b1 = Buflo.apply small1 and b2 = Buflo.apply small2 in
  Alcotest.(check int) "same length" (Trace.length b1) (Trace.length b2);
  Alcotest.(check (float 1e-9)) "same duration" (Trace.duration b1) (Trace.duration b2)

(* --- RegulaTor --- *)

let test_regulator_reshapes_downloads () =
  let t = web_like_trace () in
  let r = Regulator.apply t in
  Alcotest.(check bool) "nonempty" true (Trace.length r > 0);
  Array.iter (fun e -> Alcotest.(check int) "uniform size" 1500 e.Trace.size) r;
  Alcotest.(check bool) "sorted" true (Trace.is_sorted r)

let test_regulator_carries_volume () =
  let t = web_like_trace () in
  let r = Regulator.apply t in
  Alcotest.(check bool) "at least as many downloads as real" true
    (Trace.count ~dir:inc r >= Trace.count ~dir:inc t)

let test_regulator_decaying_rate () =
  (* A single burst at t=0: output gaps grow (rate decays). *)
  let t = Array.init 50 (fun i -> ev (float_of_int i *. 1e-4) inc 1500) in
  let r = Regulator.apply t in
  let gaps = Trace.interarrivals ~dir:inc r in
  Alcotest.(check bool) "later gaps longer" true
    (Array.length gaps > 4 && gaps.(Array.length gaps - 1) > gaps.(0))

(* --- Tamaraw --- *)

let test_tamaraw_pads_to_multiple () =
  let t = web_like_trace () in
  let d = Tamaraw.apply t in
  let n_out = Trace.count ~dir:out d and n_in = Trace.count ~dir:inc d in
  Alcotest.(check int) "out count multiple of L" 0 (n_out mod 100);
  Alcotest.(check int) "in count multiple of L" 0 (n_in mod 100)

let test_tamaraw_constant_intervals () =
  let d = Tamaraw.apply (web_like_trace ()) in
  Array.iter
    (fun g -> Alcotest.(check (float 1e-9)) "in interval" 0.012 g)
    (Trace.interarrivals ~dir:inc d);
  Array.iter
    (fun g -> Alcotest.(check (float 1e-9)) "out interval" 0.04 g)
    (Trace.interarrivals ~dir:out d)

let test_tamaraw_quantizes_lengths () =
  (* Two traces with similar volume map to identical defended lengths. *)
  let t1 = [| ev 0.0 inc 40_000; ev 0.1 out 2_000 |] in
  let t2 = [| ev 0.0 inc 55_000; ev 0.2 out 3_000; ev 0.3 inc 10_000 |] in
  Alcotest.(check int) "same bucket"
    (Trace.length (Tamaraw.apply t1))
    (Trace.length (Tamaraw.apply t2))

(* --- WTF-PAD --- *)

let test_wtfpad_fills_gaps () =
  let t =
    Array.concat
      [
        Array.init 20 (fun i -> ev (float_of_int i *. 0.001) inc 1400);
        [| ev 1.0 inc 1400 |];  (* a 0.98 s silence before this *)
      ]
  in
  let w = Wtfpad.apply ~rng:(Rng.create 9) t in
  Alcotest.(check bool) "dummies added" true (Trace.length w > Trace.length t);
  (* Dummies land inside the silence (just after it opens, spaced like the
     flow's typical gaps) and are MTU-sized, unlike the real 1400 B
     packets. *)
  Alcotest.(check bool) "silence filled" true
    (Array.exists (fun e -> e.Trace.time > 0.0191 && e.Trace.time < 1.0 && e.Trace.size = 1500) w);
  Alcotest.(check bool) "bounded per gap" true
    (Trace.length w <= Trace.length t + 6)

let test_wtfpad_zero_latency () =
  let t = web_like_trace () in
  let w = Wtfpad.apply ~rng:(Rng.create 10) t in
  Alcotest.(check (float 1e-9)) "no latency overhead" 0.0
    (Overhead.latency_overhead ~original:t ~defended:w)

(* --- ALPaCA --- *)

let test_alpaca_pads_bursts_to_quantum () =
  let t = web_like_trace () in
  let d = Alpaca.apply t in
  Alcotest.(check bool) "padding added" true
    (Trace.bytes ~dir:inc d > Trace.bytes ~dir:inc t);
  (* All incoming bytes together quantize: every burst is a multiple of
     8 KiB, so the total is too (one burst in this trace shape). *)
  Alcotest.(check int) "quantized" 0 (Trace.bytes ~dir:inc d mod 8192)

let test_alpaca_outgoing_untouched () =
  let t = web_like_trace () in
  let d = Alpaca.apply t in
  Alcotest.(check int) "outgoing count" (Trace.count ~dir:out t) (Trace.count ~dir:out d)

let test_alpaca_separate_bursts () =
  (* Two bursts separated by a long gap are padded independently. *)
  let t = [| ev 0.0 inc 5000; ev 0.001 inc 5000; ev 1.0 inc 3000 |] in
  let d = Alpaca.apply t in
  let early = Array.to_list d |> List.filter (fun e -> e.Trace.time < 0.5) in
  let late = Array.to_list d |> List.filter (fun e -> e.Trace.time >= 0.5) in
  let bytes l = List.fold_left (fun acc e -> acc + e.Trace.size) 0 l in
  Alcotest.(check int) "burst 1 quantized" 0 (bytes early mod 8192);
  Alcotest.(check int) "burst 2 quantized" 0 (bytes late mod 8192)

(* --- Morphing --- *)

let test_morphing_wears_target_sizes () =
  let t = web_like_trace () in
  let d = Morphing.apply ~rng:(Rng.create 16) t in
  Array.iter
    (fun e ->
      if e.Trace.dir = inc then
        Alcotest.(check bool) "size from target domain" true (e.Trace.size >= 80 && e.Trace.size <= 1000))
    d;
  (* Real bytes are covered (padding allowed, loss not). *)
  Alcotest.(check bool) "covers real bytes" true
    (Trace.bytes ~dir:inc d >= Trace.bytes ~dir:inc t)

let test_morphing_outgoing_untouched () =
  let t = web_like_trace () in
  let d = Morphing.apply ~rng:(Rng.create 17) t in
  Alcotest.(check int) "outgoing bytes" (Trace.bytes ~dir:out t) (Trace.bytes ~dir:out d)

(* --- Surakav --- *)

let test_surakav_covers_payload () =
  let t = web_like_trace () in
  let d = Surakav.apply ~rng:(Rng.create 18) t in
  Alcotest.(check bool) "reference schedule covers real bytes" true
    (Trace.bytes ~dir:inc d >= Trace.bytes ~dir:inc t);
  Array.iter (fun e -> Alcotest.(check int) "uniform size" 1500 e.Trace.size) d

let test_surakav_content_independent_schedule () =
  (* Same rng seed, different contents of similar size: identical shape. *)
  let t1 = [| ev 0.0 inc 100_000 |] and t2 = [| ev 0.0 inc 100_500; ev 0.1 inc 1000 |] in
  let d1 = Surakav.apply ~rng:(Rng.create 19) t1 in
  let d2 = Surakav.apply ~rng:(Rng.create 19) t2 in
  (* The schedules come from the same draws; lengths differ by at most one
     burst. *)
  Alcotest.(check bool) "similar lengths" true
    (abs (Trace.length d1 - Trace.length d2) <= 40)

(* --- Cactus --- *)

let test_cactus_quantizes_time_and_size () =
  let t = web_like_trace () in
  let d = Cactus.apply ~rng:(Rng.create 20) t in
  Array.iter (fun e -> Alcotest.(check int) "cell size" 1200 e.Trace.size) d;
  Alcotest.(check bool) "volume covered" true (Trace.bytes d >= Trace.bytes t);
  Alcotest.(check bool) "sorted" true (Trace.is_sorted d)

let test_cactus_preserves_per_direction_volume () =
  let t = web_like_trace () in
  let d = Cactus.apply ~rng:(Rng.create 21) t in
  Alcotest.(check bool) "incoming covered" true
    (Trace.bytes ~dir:inc d >= Trace.bytes ~dir:inc t);
  Alcotest.(check bool) "outgoing covered" true
    (Trace.bytes ~dir:out d >= Trace.bytes ~dir:out t)

(* --- NetShaper --- *)

let test_netshaper_fixed_sizes () =
  let d = Netshaper.apply ~rng:(Rng.create 12) (web_like_trace ()) in
  Array.iter
    (fun e ->
      if e.Trace.dir = inc then Alcotest.(check int) "uniform size" 1500 e.Trace.size)
    d;
  Alcotest.(check bool) "sorted" true (Trace.is_sorted d)

let test_netshaper_carries_volume () =
  let t = web_like_trace () in
  let d = Netshaper.apply ~rng:(Rng.create 13) t in
  Alcotest.(check bool) "incoming volume covered" true
    (Trace.bytes ~dir:inc d >= Trace.bytes ~dir:inc t)

let test_netshaper_pads_idle_windows () =
  (* A single small burst still produces at least the per-window floor. *)
  let t = [| ev 0.0 inc 3000; ev 0.3 inc 2000 |] in
  let d = Netshaper.apply ~rng:(Rng.create 14) t in
  (* Between the two bursts (0.05..0.3 s) the floor keeps packets flowing. *)
  Alcotest.(check bool) "idle window padded" true
    (Array.exists (fun e -> e.Trace.time > 0.1 && e.Trace.time < 0.28) d)

let test_netshaper_outgoing_untouched () =
  let t = web_like_trace () in
  let d = Netshaper.apply ~rng:(Rng.create 15) t in
  Alcotest.(check int) "outgoing count" (Trace.count ~dir:out t) (Trace.count ~dir:out d);
  Alcotest.(check int) "outgoing bytes" (Trace.bytes ~dir:out t) (Trace.bytes ~dir:out d)

(* --- Overhead --- *)

let test_overhead_zero_on_identity () =
  let t = web_like_trace () in
  let s = Overhead.summarize ~original:t ~defended:t in
  Alcotest.(check (float 1e-9)) "bw" 0.0 s.Overhead.bandwidth;
  Alcotest.(check (float 1e-9)) "lat" 0.0 s.Overhead.latency;
  Alcotest.(check (float 1e-9)) "pkt" 0.0 s.Overhead.packets

let test_overhead_values () =
  let original = [| ev 0.0 inc 1000; ev 1.0 inc 1000 |] in
  let defended = [| ev 0.0 inc 1000; ev 2.0 inc 2000 |] in
  Alcotest.(check (float 1e-9)) "bw +50%" 0.5
    (Overhead.bandwidth_overhead ~original ~defended);
  Alcotest.(check (float 1e-9)) "lat +100%" 1.0 (Overhead.latency_overhead ~original ~defended)

let test_overhead_mean_summary () =
  let s1 = { Overhead.bandwidth = 0.2; latency = 0.0; packets = 0.4 } in
  let s2 = { Overhead.bandwidth = 0.4; latency = 0.2; packets = 0.0 } in
  let m = Overhead.mean_summary [ s1; s2 ] in
  Alcotest.(check (float 1e-9)) "bw mean" 0.3 m.Overhead.bandwidth;
  Alcotest.(check (float 1e-9)) "lat mean" 0.1 m.Overhead.latency

(* --- Registry --- *)

let test_registry_covers_table1 () =
  let expected =
    [ "ALPaCA"; "BuFLO"; "Tamaraw"; "RegulaTor"; "Surakav"; "Palette"; "WTF-PAD"; "FRONT"; "BLANKET";
      "Morphing"; "HTTPOS"; "Burst Defense"; "Cactus"; "Adv. FRONT"; "QCSD"; "pad-resource";
      "NetShaper" ]
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " present") true
        (List.exists (fun e -> e.Registry.name = name) Registry.all))
    expected

let test_registry_implemented_apply () =
  let rng = Rng.create 11 in
  let t = web_like_trace () in
  List.iter
    (fun e ->
      match e.Registry.apply with
      | None -> Alcotest.fail "implemented entry without apply"
      | Some f ->
          let defended = f ~rng t in
          Alcotest.(check bool) (e.Registry.name ^ " yields a sorted trace") true
            (Trace.is_sorted defended))
    Registry.implemented

let test_registry_find () =
  Alcotest.(check bool) "find FRONT" true ((Registry.find "FRONT").Registry.apply <> None);
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Registry.find "nope");
       false
     with Not_found -> true)

(* --- qcheck properties --- *)

let arbitrary_trace =
  QCheck.make
    QCheck.Gen.(
      list_size (int_range 2 80)
        (map3
           (fun t d s -> ev t (if d then out else inc) (40 + s))
           (float_range 0.0 5.0) bool (int_range 0 1460))
      |> map (fun evs -> Trace.sort (Array.of_list evs)))

let prop_split_conserves =
  QCheck.Test.make ~name:"split conserves per-direction bytes" ~count:200 arbitrary_trace
    (fun t ->
      let s = Emulate.split t in
      Trace.bytes ~dir:inc s = Trace.bytes ~dir:inc t
      && Trace.bytes ~dir:out s = Trace.bytes ~dir:out t
      && Trace.is_sorted s)

let prop_delay_monotone =
  QCheck.Test.make ~name:"delay only moves packets later" ~count:200
    QCheck.(pair arbitrary_trace small_int)
    (fun (t, seed) ->
      let d = Emulate.delay ~rng:(Rng.create seed) t in
      Trace.length d = Trace.length t
      && Trace.is_sorted d
      && Trace.duration d >= Trace.duration t -. 1e-12)

let prop_front_superset =
  QCheck.Test.make ~name:"front only adds packets" ~count:100
    QCheck.(pair arbitrary_trace small_int)
    (fun (t, seed) ->
      let f = Front.apply ~rng:(Rng.create seed) t in
      Trace.length f >= Trace.length t && Trace.bytes f >= Trace.bytes t)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ( "defense.emulate",
      [
        Alcotest.test_case "split conserves bytes" `Quick test_split_conserves_bytes;
        Alcotest.test_case "split caps sizes" `Quick test_split_caps_sizes;
        Alcotest.test_case "split only incoming" `Quick test_split_only_incoming;
        Alcotest.test_case "split first n" `Quick test_split_first_n_only;
        Alcotest.test_case "split threshold boundary" `Quick test_split_threshold_boundary;
        Alcotest.test_case "split sorted" `Quick test_split_sorted;
        Alcotest.test_case "delay never earlier" `Quick test_delay_never_earlier;
        Alcotest.test_case "delay preserves sizes" `Quick test_delay_preserves_sizes;
        Alcotest.test_case "delay stretches duration" `Quick test_delay_stretches_duration;
        Alcotest.test_case "delay first n" `Quick test_delay_first_n_constant_tail_shift;
        Alcotest.test_case "combined" `Quick test_combined_splits_and_delays;
        Alcotest.test_case "prefix-aware split/delay match the oracle" `Quick test_emulate_matches_oracle;
        q prop_split_conserves;
        q prop_delay_monotone;
      ] );
    ( "defense.front",
      [
        Alcotest.test_case "adds dummies both directions" `Quick
          test_front_adds_dummies_both_directions;
        Alcotest.test_case "zero latency" `Quick test_front_zero_latency;
        Alcotest.test_case "bandwidth overhead order" `Quick test_front_bandwidth_overhead_order;
        q prop_front_superset;
      ] );
    ( "defense.buflo",
      [
        Alcotest.test_case "constant rate" `Quick test_buflo_constant_rate;
        Alcotest.test_case "minimum duration" `Quick test_buflo_minimum_duration;
        Alcotest.test_case "carries real bytes" `Quick test_buflo_carries_real_bytes;
        Alcotest.test_case "uniform output" `Quick test_buflo_uniform_output;
      ] );
    ( "defense.regulator",
      [
        Alcotest.test_case "reshapes downloads" `Quick test_regulator_reshapes_downloads;
        Alcotest.test_case "carries volume" `Quick test_regulator_carries_volume;
        Alcotest.test_case "decaying rate" `Quick test_regulator_decaying_rate;
      ] );
    ( "defense.tamaraw",
      [
        Alcotest.test_case "pads to multiple" `Quick test_tamaraw_pads_to_multiple;
        Alcotest.test_case "constant intervals" `Quick test_tamaraw_constant_intervals;
        Alcotest.test_case "quantizes lengths" `Quick test_tamaraw_quantizes_lengths;
      ] );
    ( "defense.wtfpad",
      [
        Alcotest.test_case "fills gaps" `Quick test_wtfpad_fills_gaps;
        Alcotest.test_case "zero latency" `Quick test_wtfpad_zero_latency;
      ] );
    ( "defense.alpaca",
      [
        Alcotest.test_case "pads bursts to quantum" `Quick test_alpaca_pads_bursts_to_quantum;
        Alcotest.test_case "outgoing untouched" `Quick test_alpaca_outgoing_untouched;
        Alcotest.test_case "separate bursts" `Quick test_alpaca_separate_bursts;
      ] );
    ( "defense.morphing",
      [
        Alcotest.test_case "wears target sizes" `Quick test_morphing_wears_target_sizes;
        Alcotest.test_case "outgoing untouched" `Quick test_morphing_outgoing_untouched;
      ] );
    ( "defense.surakav",
      [
        Alcotest.test_case "covers payload" `Quick test_surakav_covers_payload;
        Alcotest.test_case "content-independent schedule" `Quick
          test_surakav_content_independent_schedule;
      ] );
    ( "defense.cactus",
      [
        Alcotest.test_case "quantizes time and size" `Quick test_cactus_quantizes_time_and_size;
        Alcotest.test_case "per-direction volume" `Quick test_cactus_preserves_per_direction_volume;
      ] );
    ( "defense.netshaper",
      [
        Alcotest.test_case "fixed sizes" `Quick test_netshaper_fixed_sizes;
        Alcotest.test_case "carries volume" `Quick test_netshaper_carries_volume;
        Alcotest.test_case "pads idle windows" `Quick test_netshaper_pads_idle_windows;
        Alcotest.test_case "outgoing untouched" `Quick test_netshaper_outgoing_untouched;
      ] );
    ( "defense.overhead",
      [
        Alcotest.test_case "zero on identity" `Quick test_overhead_zero_on_identity;
        Alcotest.test_case "values" `Quick test_overhead_values;
        Alcotest.test_case "mean summary" `Quick test_overhead_mean_summary;
      ] );
    ( "defense.registry",
      [
        Alcotest.test_case "covers table 1" `Quick test_registry_covers_table1;
        Alcotest.test_case "implemented apply" `Quick test_registry_implemented_apply;
        Alcotest.test_case "find" `Quick test_registry_find;
      ] );
  ]

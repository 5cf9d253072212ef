(* Tests for stob_quic: frames, handshake, stream transfer, loss recovery,
   Stob hooks on the QUIC datagram path. *)

module Engine = Stob_sim.Engine
module Netem = Stob_sim.Netem
module Units = Stob_util.Units
module Rng = Stob_util.Rng
module Packet = Stob_net.Packet
module Trace = Stob_net.Trace
module Capture = Stob_net.Capture
module Path = Stob_tcp.Path
module Config = Stob_tcp.Config
module Hooks = Stob_tcp.Hooks
module Monitor = Stob_check.Monitor
module Soak = Stob_check.Soak
open Stob_quic

(* --- Frame --- *)

let test_frame_sizes () =
  Alcotest.(check int) "stream frame" (8 + 1000)
    (Frame.wire_bytes (Frame.Stream { stream = 4; offset = 0; length = 1000; fin = false }));
  Alcotest.(check int) "ack 2 ranges" 16 (Frame.wire_bytes (Frame.Ack { ranges = [ (5, 9); (0, 2) ] }));
  Alcotest.(check int) "padding" 100 (Frame.wire_bytes (Frame.Padding 100));
  Alcotest.(check int) "ping" 1 (Frame.wire_bytes Frame.Ping)

let test_frame_ack_eliciting () =
  Alcotest.(check bool) "ack is not" false (Frame.is_ack_eliciting (Frame.Ack { ranges = [] }));
  Alcotest.(check bool) "stream is" true
    (Frame.is_ack_eliciting (Frame.Stream { stream = 4; offset = 0; length = 1; fin = false }));
  Alcotest.(check bool) "padding is" true (Frame.is_ack_eliciting (Frame.Padding 10))

(* --- connection world --- *)

type world = {
  engine : Engine.t;
  path : Path.t;
  conn : Connection.t;
  client_rx : (int, int) Hashtbl.t;  (* stream -> bytes delivered at client *)
  server_rx : (int, int) Hashtbl.t;
  client_fins : int ref;
  server_fins : int ref;
}

let make_world ?(rate_bps = Units.mbps 100.0) ?(delay = 0.01) ?queue_capacity ?client_netem
    ?server_netem ?cc ?server_hooks ?(flight_bytes = 3500) () =
  let engine = Engine.create () in
  let path = Path.create ~engine ~rate_bps ~delay ?queue_capacity ?client_netem ?server_netem () in
  let conn = Connection.create ~engine ~path ~flow:1 ?cc ?server_hooks ~flight_bytes () in
  let client_rx = Hashtbl.create 8 and server_rx = Hashtbl.create 8 in
  let client_fins = ref 0 and server_fins = ref 0 in
  let count tbl ~stream n =
    Hashtbl.replace tbl stream (n + Option.value ~default:0 (Hashtbl.find_opt tbl stream))
  in
  Endpoint.set_on_stream (Connection.client conn) (fun ~stream n -> count client_rx ~stream n);
  Endpoint.set_on_stream (Connection.server conn) (fun ~stream n -> count server_rx ~stream n);
  Endpoint.set_on_stream_fin (Connection.client conn) (fun ~stream:_ -> incr client_fins);
  Endpoint.set_on_stream_fin (Connection.server conn) (fun ~stream:_ -> incr server_fins);
  { engine; path; conn; client_rx; server_rx; client_fins; server_fins }

let got tbl stream = Option.value ~default:0 (Hashtbl.find_opt tbl stream)

let test_handshake () =
  let w = make_world () in
  Connection.open_ w.conn;
  Engine.run ~until:2.0 w.engine;
  Alcotest.(check bool) "client established" true (Endpoint.established (Connection.client w.conn));
  Alcotest.(check bool) "server established" true (Endpoint.established (Connection.server w.conn))

let test_initial_padded () =
  let w = make_world () in
  Connection.open_ w.conn;
  Engine.run ~until:2.0 w.engine;
  let trace = Capture.trace (Path.capture w.path) in
  (* First client datagram is padded to >= 1200 B payload. *)
  Alcotest.(check bool) "initial padded" true (trace.(0).Trace.size >= 1200)

let test_stream_transfer () =
  let w = make_world () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.client w.conn) ~stream:4 ~fin:true 500);
  Endpoint.set_on_stream_fin (Connection.server w.conn) (fun ~stream ->
      incr w.server_fins;
      if stream = 4 then Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 300_000);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  Alcotest.(check int) "server got request" 500 (got w.server_rx 4);
  Alcotest.(check int) "client got response" 300_000 (got w.client_rx 4);
  Alcotest.(check int) "client saw fin" 1 !(w.client_fins)

let test_multiplexed_streams () =
  let w = make_world () in
  let streams = [ 4; 8; 12; 16 ] in
  Connection.on_established w.conn (fun () ->
      List.iter
        (fun s -> Endpoint.send_stream (Connection.server w.conn) ~stream:s ~fin:true (50_000 + s))
        streams);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  List.iter
    (fun s -> Alcotest.(check int) (Printf.sprintf "stream %d complete" s) (50_000 + s) (got w.client_rx s))
    streams;
  Alcotest.(check int) "all fins" (List.length streams) !(w.client_fins)

let test_loss_recovery () =
  let w = make_world ~rate_bps:(Units.mbps 20.0) ~delay:0.02 ~queue_capacity:20_000 () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 1_000_000);
  Connection.open_ w.conn;
  Engine.run ~until:60.0 w.engine;
  Alcotest.(check int) "all bytes despite drops" 1_000_000 (got w.client_rx 4);
  Alcotest.(check bool) "drops happened" true (Path.drops w.path > 0);
  Alcotest.(check bool) "chunks were retransmitted" true
    (Endpoint.retransmitted_chunks (Connection.server w.conn) > 0)

let cca_cases = [ ("reno", Stob_tcp.Reno.make); ("cubic", Stob_tcp.Cubic.make); ("bbr", Stob_tcp.Bbr.make) ]

let test_all_ccas () =
  List.iter
    (fun (name, cc) ->
      let w = make_world ~cc () in
      Connection.on_established w.conn (fun () ->
          Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 400_000);
      Connection.open_ w.conn;
      Engine.run ~until:30.0 w.engine;
      Alcotest.(check int) (name ^ " delivers") 400_000 (got w.client_rx 4))
    cca_cases

let test_datagrams_respect_mtu () =
  let w = make_world () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 200_000);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  let trace = Capture.trace (Path.capture w.path) in
  Array.iter
    (fun e -> Alcotest.(check bool) "within datagram budget" true (e.Trace.size <= 1350 + 43))
    trace

let test_hook_shrinks_datagrams () =
  let hook =
    {
      Hooks.on_segment =
        (fun ~now:_ ~flow:_ ~phase:_ d -> { d with Hooks.packet_payload = 600 });
    }
  in
  let baseline = make_world () in
  Connection.on_established baseline.conn (fun () ->
      Endpoint.send_stream (Connection.server baseline.conn) ~stream:4 ~fin:true 200_000);
  Connection.open_ baseline.conn;
  Engine.run ~until:30.0 baseline.engine;
  let hooked = make_world ~server_hooks:hook () in
  Connection.on_established hooked.conn (fun () ->
      Endpoint.send_stream (Connection.server hooked.conn) ~stream:4 ~fin:true 200_000);
  Connection.open_ hooked.conn;
  Engine.run ~until:30.0 hooked.engine;
  Alcotest.(check int) "hooked still delivers" 200_000 (got hooked.client_rx 4);
  let count w =
    Trace.count ~dir:Packet.Incoming (Capture.trace (Path.capture w.path))
  in
  Alcotest.(check bool) "more, smaller datagrams" true (count hooked > count baseline);
  let max_in w =
    Array.fold_left
      (fun acc e -> if e.Trace.dir = Packet.Incoming then max acc e.Trace.size else acc)
      0
      (Capture.trace (Path.capture w.path))
  in
  Alcotest.(check bool) "datagram size capped" true (max_in hooked <= 600 + 43)

let test_padding_datagram () =
  let w = make_world () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_padding_datagram (Connection.server w.conn) 900;
      Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 10_000);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  Alcotest.(check int) "only real bytes delivered" 10_000 (got w.client_rx 4);
  let trace = Capture.trace (Path.capture w.path) in
  Alcotest.(check bool) "padding visible on wire" true
    (Array.exists (fun e -> e.Trace.dir = Packet.Incoming && e.Trace.size = 900 + 43) trace)

let test_flight_bytes_visible () =
  (* Bigger handshake flights produce more early incoming bytes — the
     site-characteristic signal. *)
  let flight_bytes flight =
    let engine = Engine.create () in
    let path = Path.create ~engine ~rate_bps:(Units.mbps 100.0) ~delay:0.01 () in
    let conn = Connection.create ~engine ~path ~flow:1 ~flight_bytes:flight () in
    Connection.open_ conn;
    Engine.run ~until:2.0 engine;
    Trace.bytes ~dir:Packet.Incoming (Capture.trace (Path.capture path))
  in
  Alcotest.(check bool) "bigger flight, more bytes" true (flight_bytes 5000 > flight_bytes 2500)

(* --- Robustness regressions (each failed on the pre-hardening endpoint) --- *)

(* RFC 9000 §10.1: a connection nobody talks on must close itself by the
   idle timeout and quiesce every timer — the engine ends up empty, like
   TCP's close-time quiesce.  Pre-fix there was no idle timeout: both
   endpoints sat open forever. *)
let test_idle_timeout_close_quiesce () =
  let w = make_world () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.client w.conn) ~stream:4 ~fin:true 2_000);
  Connection.open_ w.conn;
  Engine.run ~until:200.0 w.engine;
  let client = Connection.client w.conn and server = Connection.server w.conn in
  Alcotest.(check bool) "client closed" true (Endpoint.closed client);
  Alcotest.(check bool) "server closed" true (Endpoint.closed server);
  Alcotest.(check (option string)) "client reason" (Some "idle-timeout")
    (Endpoint.close_reason client);
  Alcotest.(check (option string)) "server reason" (Some "idle-timeout")
    (Endpoint.close_reason server);
  Alcotest.(check int) "every timer quiesced" 0 (Engine.pending w.engine)

(* RFC 9000 §8.1: every client datagram after the Initial vanishes, so the
   unconfirmed server's budget is 3x one Initial.  Pre-fix it blasted the
   whole 20 KB handshake flight into the void. *)
let test_amplification_cap () =
  let drop_all_after_initial =
    Netem.spec
      { Netem.default with Netem.drop_list = List.init 200 (fun i -> i + 2); seed = 1 }
  in
  let w = make_world ~server_netem:drop_all_after_initial ~flight_bytes:20_000 () in
  Connection.open_ w.conn;
  Engine.run ~until:20.0 w.engine;
  let insp = Endpoint.inspect (Connection.server w.conn) in
  Alcotest.(check bool) "server stayed unconfirmed" false insp.Endpoint.established;
  Alcotest.(check bool) "sent at most 3x received" true
    (insp.Endpoint.bytes_sent <= 3 * insp.Endpoint.bytes_received);
  Alcotest.(check bool) "credit never negative" true (insp.Endpoint.amp_credit >= 0);
  Alcotest.(check bool) "flight withheld" true (insp.Endpoint.bytes_sent < 20_000)

(* RFC 9002 §6.2.2.1: the client's post-Initial datagrams are lost while
   the server is amp-blocked mid-flight — with nothing ack-eliciting in
   flight on either side, only the client's anti-deadlock probe can
   re-credit the server.  Pre-fix both sides idled out and the handshake
   never completed. *)
let test_amplification_unblock_no_deadlock () =
  let lose_client_ack_flight =
    Netem.spec { Netem.default with Netem.drop_list = [ 2; 3 ]; seed = 2 }
  in
  let w = make_world ~server_netem:lose_client_ack_flight ~flight_bytes:8_000 () in
  Connection.open_ w.conn;
  Engine.run ~until:15.0 w.engine;
  Alcotest.(check bool) "client established" true (Endpoint.established (Connection.client w.conn));
  Alcotest.(check bool) "server established" true (Endpoint.established (Connection.server w.conn));
  Alcotest.(check bool) "anti-deadlock probe fired" true
    (Endpoint.pto_events (Connection.client w.conn) > 0)

(* RFC 9002 §6.1.2: lose one mid-response datagram with fewer than 3
   packets sent after it — the packet threshold can never fire, so only
   the 9/8-RTT time threshold can declare the loss.  Pre-fix the transfer
   wedged until the (much later, backed-off) PTO rescued it. *)
let test_time_threshold_loss () =
  let big p = Packet.wire_size p >= 1200 in
  let lose_third_data_packet =
    Netem.spec ~drop_filter:big { Netem.default with Netem.drop_list = [ 3 ]; seed = 3 }
  in
  (* Flight of 900 B stays under the drop filter, so the filtered ordinals
     count exactly the full-size response datagrams. *)
  let w = make_world ~client_netem:lose_third_data_packet ~flight_bytes:900 () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.client w.conn) ~stream:4 ~fin:true 400);
  Endpoint.set_on_stream_fin (Connection.server w.conn) (fun ~stream ->
      incr w.server_fins;
      if stream = 4 then Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 5_400);
  Connection.open_ w.conn;
  Engine.run ~until:30.0 w.engine;
  let server = Connection.server w.conn in
  Alcotest.(check int) "full response despite the loss" 5_400 (got w.client_rx 4);
  Alcotest.(check bool) "time threshold declared it" true
    (Endpoint.time_loss_detections server > 0);
  Alcotest.(check int) "the PTO never had to" 0 (Endpoint.pto_events server)

(* RFC 9002 §7.6 + §7.5: a mid-transfer datagram blackhole longer than
   3 PTOs must be declared persistent congestion (collapsing cwnd) once
   acks resume — and the flow must still complete.  This pins two pre-fix
   gaps: the declaration did not exist, and a window-gated PTO could not
   force a probe out while inflight sat above the collapsed cwnd, so the
   idle timeout reaped the connection mid-recovery (completed = false). *)
let test_persistent_congestion_blackhole () =
  let spec =
    {
      Soak.seed = 11;
      transport = Soak.Quic;
      cca = "reno";
      request = 400;
      response = 150_000;
      delay = 0.02;
      loss = 0.0;
      client = Config.default;
      server = Config.default;
      slow_reader = false;
      read_chunk = 2_048;
      read_interval = 0.02;
      read_stall = 0.0;
      pacer_jump = None;
      flight = 3_000;
      blackhole = Some (0.1, 1.5);
      horizon = 120.0;
    }
  in
  let r, violations = Soak.run_flow spec in
  Alcotest.(check bool) "flow completes" true r.Soak.completed;
  Alcotest.(check bool) "persistent congestion declared" true (r.Soak.persistent_congestions > 0);
  Alcotest.(check (list (pair string int))) "no invariant violations" [] violations

(* BBR delivery-rate taint: acks of packets sent under starvation must
   reach the CCA flagged [limited], or their samples poison the pacing
   rate.  Two full-soak wedges pin this (both exact population specs,
   incomplete pre-fix):
   - the handshake tail is amplification- and app-limited, and its tiny
     RTT-spaced packets read as a few kbit/s — the response flight then
     paces out slower than the idle timeout (the amp/app-limited taint);
   - a PTO retransmission squeezed through the window a loss declaration
     reopened is acked across the stall and reads as a few hundred bit/s —
     the recovery burst is then committed with ~60 s of pacing debt and
     the idle timeout reaps the connection (the PTO-trickle taint). *)
let test_bbr_starvation_rate_taint () =
  let base =
    {
      Soak.seed = 0;
      transport = Soak.Quic;
      cca = "bbr";
      request = 0;
      response = 0;
      delay = 0.0;
      loss = 0.0;
      client = Config.default;
      server = Config.default;
      slow_reader = false;
      read_chunk = 2_048;
      read_interval = 0.02;
      read_stall = 0.0;
      pacer_jump = None;
      flight = 0;
      blackhole = None;
      horizon = 120.0;
    }
  in
  (* Amp-limited handshake under i.i.d. loss (full-soak shard 16). *)
  let handshake_wedge =
    {
      base with
      Soak.seed = 516142921;
      request = 199;
      response = 21_111;
      delay = 0.035329522343922101;
      loss = 0.014758205564616199;
      flight = 4_595;
    }
  in
  (* PTO trickle after a mid-response blackhole (full-soak shard 63). *)
  let pto_trickle_wedge =
    {
      base with
      Soak.seed = 102035986;
      request = 1_343;
      response = 28_662;
      delay = 0.034306948908030696;
      flight = 4_139;
      blackhole = Some (0.42995924854368101, 0.13384523613234955);
    }
  in
  List.iter
    (fun (name, spec) ->
      let r, violations = Soak.run_flow spec in
      Alcotest.(check bool) (name ^ " completes") true r.Soak.completed;
      Alcotest.(check (list (pair string int))) (name ^ " violation-free") [] violations)
    [ ("handshake wedge", handshake_wedge); ("pto trickle wedge", pto_trickle_wedge) ]

(* The QUIC rtx oracle: on a drop-free (netem-only loss) drained run the
   endpoints' rtx_datagrams counters and the capture's rtx marks must
   agree — the capture taps upstream of the impairment, so netem loss does
   not desynchronize them. *)
let test_rtx_oracle_agreement () =
  let lossy = Netem.spec { Netem.default with Netem.loss = Netem.Iid 0.03; seed = 9 } in
  let w = make_world ~queue_capacity:10_000_000 ~client_netem:lossy () in
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 400_000);
  Connection.open_ w.conn;
  Engine.run ~until:120.0 w.engine;
  Alcotest.(check int) "full delivery" 400_000 (got w.client_rx 4);
  Alcotest.(check int) "no queue drops" 0 (Path.drops w.path);
  Alcotest.(check bool) "capture saw retransmissions" true
    (Capture.rtx_count (Path.capture w.path) > 0);
  let monitor = Monitor.create ~mode:Monitor.Collect w.engine in
  Monitor.check_quic_rtx_oracle monitor
    ~capture:(Path.capture w.path)
    ~endpoints:[ Connection.client w.conn; Connection.server w.conn ]
    ~drops:(Path.drops w.path) ~drained:true;
  Alcotest.(check int) "oracle agrees" 0 (List.length (Monitor.violations monitor))

(* quic-pn-index: the packet-number index finds every outstanding packet at
   every send decision of a lossy, reordered transfer, and the monitor
   flags an inspection where it does not. *)
let test_pn_index_invariant () =
  let impair seed =
    Netem.spec
      {
        Netem.default with
        Netem.loss = Netem.Iid 0.05;
        reorder_prob = 0.1;
        reorder_depth = 3;
        reorder_hold = 0.05;
        seed;
      }
  in
  let w =
    make_world ~queue_capacity:10_000_000 ~client_netem:(impair 5) ~server_netem:(impair 6) ()
  in
  let monitor = Monitor.create ~mode:Monitor.Collect w.engine in
  Monitor.observe_quic monitor ~name:"client" (Connection.client w.conn);
  Monitor.observe_quic monitor ~name:"server" (Connection.server w.conn);
  Connection.on_established w.conn (fun () ->
      Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true 300_000);
  Connection.open_ w.conn;
  Engine.run ~until:60.0 w.engine;
  Alcotest.(check int) "full delivery" 300_000 (got w.client_rx 4);
  Alcotest.(check bool) "losses were declared" true
    (Endpoint.retransmitted_chunks (Connection.server w.conn) > 0);
  Alcotest.(check (list string)) "no violations" []
    (List.map Stob_check.Violation.to_string (Monitor.violations monitor));
  let i = Endpoint.inspect (Connection.server w.conn) in
  let doctored = { i with Endpoint.indexed_packets = i.Endpoint.unacked_packets + 1 } in
  Alcotest.(check (option string)) "doctored index flagged" (Some "quic-pn-index")
    (Option.map fst (Monitor.check_quic_inspection doctored))

(* The mixed TCP+QUIC smoke battery is jobs-invariant, shard for shard. *)
let test_mixed_soak_jobs_parity () =
  let config = { Soak.smoke_config with Soak.transport = `Mixed } in
  let seq = Soak.run config in
  let par = Stob_par.Pool.with_pool ~domains:4 (fun pool -> Soak.run ~pool config) in
  Alcotest.(check bool) "mixed soak identical under --jobs 1 and --jobs 4" true
    (seq.Soak.reports = par.Soak.reports)

let prop_quic_delivery_integrity =
  QCheck.Test.make ~name:"quic delivers exactly the stream bytes under any loss" ~count:20
    QCheck.(
      quad (int_range 15_000 120_000) (int_range 10_000 300_000) (int_range 5 80) (int_range 1 40))
    (fun (queue_capacity, response, rate, delay_ms) ->
      let w =
        make_world
          ~rate_bps:(Units.mbps (float_of_int rate))
          ~delay:(float_of_int delay_ms *. 1e-3)
          ~queue_capacity ()
      in
      Connection.on_established w.conn (fun () ->
          Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true response);
      Connection.open_ w.conn;
      Engine.run ~until:90.0 w.engine;
      got w.client_rx 4 = response)

(* Netem variant of the delivery-integrity property: i.i.d. loss is the
   easy case — reordering (held frames) and duplication exercise the
   packet-threshold and time-threshold detectors against false positives
   (spurious retransmissions must not corrupt the stream) as well as
   misses. *)
let prop_quic_delivery_under_netem =
  QCheck.Test.make
    ~name:"quic delivers exactly the stream bytes under netem reorder + duplication" ~count:20
    QCheck.(
      pair
        (quad (int_range 10_000 200_000) (int_range 0 15) (int_range 0 15) (int_range 0 5))
        (pair small_nat small_nat))
    (fun ((response, reorder_pct, dup_pct, loss_pct), (seed_a, seed_b)) ->
      let impair seed =
        Netem.spec
          {
            Netem.default with
            Netem.loss = (if loss_pct = 0 then Netem.No_loss else Netem.Iid (float_of_int loss_pct /. 100.0));
            reorder_prob = float_of_int reorder_pct /. 100.0;
            reorder_depth = 3;
            reorder_hold = 0.05;
            duplicate_prob = float_of_int dup_pct /. 100.0;
            seed;
          }
      in
      let w =
        make_world ~queue_capacity:10_000_000
          ~client_netem:(impair (1 + seed_a))
          ~server_netem:(impair (1_000_003 + seed_b))
          ()
      in
      Connection.on_established w.conn (fun () ->
          Endpoint.send_stream (Connection.client w.conn) ~stream:4 ~fin:true 600);
      Endpoint.set_on_stream_fin (Connection.server w.conn) (fun ~stream ->
          incr w.server_fins;
          if stream = 4 then
            Endpoint.send_stream (Connection.server w.conn) ~stream:4 ~fin:true response);
      Connection.open_ w.conn;
      Engine.run ~until:90.0 w.engine;
      got w.server_rx 4 = 600 && got w.client_rx 4 = response)

(* --- Golden behaviour lock --- *)

(* One HTTP/3 page load per cell of {no policy, stack_combined} x {no
   netem, Gilbert-Elliott loss, reorder, duplication} x {CUBIC, BBR}, at
   a fixed seed.  Each cell's trace (floats as [%h]), load outcome, netem
   counters and both endpoints' loss-recovery state are digested, so any
   change to retransmission order, loss detection or ACK handling that
   moves one bit of a datagram's size or time fails here.  The perfbench
   corpora run no netem; this matrix covers the impaired paths.
   Recompute the digests only for an intended behaviour change. *)
let golden_netems =
  let impair config seed = Some (Netem.spec { config with Netem.seed }) in
  [
    ("clean", fun _ -> None);
    ( "gilbert-elliott",
      impair
        {
          Netem.default with
          Netem.loss =
            Netem.Gilbert_elliott { p_gb = 0.02; p_bg = 0.3; loss_good = 0.005; loss_bad = 0.5 };
        } );
    ( "reorder",
      impair
        { Netem.default with Netem.reorder_prob = 0.1; reorder_depth = 3; reorder_hold = 0.05 } );
    ("duplicate", impair { Netem.default with Netem.duplicate_prob = 0.1 });
  ]

let golden_render_endpoint buf ep =
  let i = Endpoint.inspect ep in
  Printf.bprintf buf "pn=%d la=%d inf=%d ub=%d up=%d cwnd=%d pto=%d bo=%h amp=%d rx=%d tx=%d"
    i.Endpoint.pn_next i.largest_acked i.inflight i.unacked_bytes i.unacked_packets i.cwnd
    i.pto_count i.pto_backoff i.amp_credit i.bytes_received i.bytes_sent;
  Printf.bprintf buf " est=%b closed=%b reason=%s idle=%b rtxd=%d rtxc=%d tld=%d pc=%d" i.established
    i.closed
    (Option.value ~default:"-" i.close_reason)
    i.idle_armed i.rtx_datagrams i.rtx_chunks i.time_loss_detections i.persistent_congestions;
  Printf.bprintf buf " sent=%d ptos=%d tlds=%d chunks=%d rtxdg=%d\n" (Endpoint.packets_sent ep)
    (Endpoint.pto_events ep) (Endpoint.time_loss_detections ep)
    (Endpoint.retransmitted_chunks ep) (Endpoint.rtx_datagrams ep)

let golden_cell ~policy ~netem ~cc =
  let conn = ref None in
  let r =
    Stob_web.Browser_quic.load ?policy ~cc ?client_netem:(netem 11) ?server_netem:(netem 12)
      ~on_connection:(fun c -> conn := Some c)
      ~rng:(Rng.create 42) (Stob_web.Sites.find "wikipedia.org")
  in
  let buf = Buffer.create 65536 in
  Array.iter
    (fun (e : Trace.event) ->
      Printf.bprintf buf "%h %c %d\n" e.Trace.time
        (if e.Trace.dir = Packet.Outgoing then 'o' else 'i')
        e.Trace.size)
    r.Stob_web.Browser.trace;
  let s = r.Stob_web.Browser.netem_stats in
  Printf.bprintf buf "completed=%b load=%h bytes=%d netem=%d/%d/%d/%d/%d\n"
    r.Stob_web.Browser.completed r.load_time r.bytes_downloaded s.Netem.offered s.lost
    s.duplicated s.reordered s.delivered;
  let conn = Option.get !conn in
  golden_render_endpoint buf (Connection.client conn);
  golden_render_endpoint buf (Connection.server conn);
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden_digests =
  [
    ("none/clean/cubic", "a182e3f339ca7f92a733ab4461556e30");
    ("none/clean/bbr", "75957769b594452018d8394feb4d58c3");
    ("none/gilbert-elliott/cubic", "c60097f69520aad53aa69b1b3775c0bc");
    ("none/gilbert-elliott/bbr", "afe026b3bb468a83bc02a3a75c2274b7");
    ("none/reorder/cubic", "ba3d5faec1b153527ae4c176fb5040f5");
    ("none/reorder/bbr", "0435ed83315470db4902290774356a3c");
    ("none/duplicate/cubic", "4222570bf55155907c77316ebc34d899");
    ("none/duplicate/bbr", "202740d162b64215b099da8f15601f7d");
    ("combined/clean/cubic", "c7b82b137b6f09a29b7b203e6e348ce8");
    ("combined/clean/bbr", "17b965502791ee17a441383b2b47093b");
    ("combined/gilbert-elliott/cubic", "c18f3f01d12eb49c67827557bfd3c346");
    ("combined/gilbert-elliott/bbr", "c9d5ef69ad4c540f25e5e47953d6bd3a");
    ("combined/reorder/cubic", "b375402a677e3727d1caf1a7dfb061db");
    ("combined/reorder/bbr", "71efe0bf2eb5c2267e2932f58bd24601");
    ("combined/duplicate/cubic", "a5034cfa4b09841babec6f118168582a");
    ("combined/duplicate/bbr", "155a29138edbb916118a45ed14fa0e34");
  ]

let test_golden_matrix () =
  let policies = [ ("none", None); ("combined", Some (Stob_core.Strategies.stack_combined ())) ] in
  let ccs = [ ("cubic", Stob_tcp.Cubic.make); ("bbr", Stob_tcp.Bbr.make) ] in
  let got =
    List.concat_map
      (fun (pname, policy) ->
        List.concat_map
          (fun (nname, netem) ->
            List.map
              (fun (cname, cc) ->
                (String.concat "/" [ pname; nname; cname ], golden_cell ~policy ~netem ~cc))
              ccs)
          golden_netems)
      policies
  in
  Alcotest.(check (list (pair string string))) "per-cell digests" golden_digests got

let suite =
  [
    ( "quic.frame",
      [
        Alcotest.test_case "sizes" `Quick test_frame_sizes;
        Alcotest.test_case "ack eliciting" `Quick test_frame_ack_eliciting;
      ] );
    ( "quic.connection",
      [
        Alcotest.test_case "handshake" `Quick test_handshake;
        Alcotest.test_case "initial padded" `Quick test_initial_padded;
        Alcotest.test_case "stream transfer" `Quick test_stream_transfer;
        Alcotest.test_case "multiplexed streams" `Quick test_multiplexed_streams;
        Alcotest.test_case "loss recovery" `Quick test_loss_recovery;
        Alcotest.test_case "all CCAs" `Slow test_all_ccas;
        Alcotest.test_case "datagrams respect mtu" `Quick test_datagrams_respect_mtu;
        Alcotest.test_case "hook shrinks datagrams" `Quick test_hook_shrinks_datagrams;
        Alcotest.test_case "padding datagram" `Quick test_padding_datagram;
        Alcotest.test_case "flight bytes visible" `Quick test_flight_bytes_visible;
        QCheck_alcotest.to_alcotest prop_quic_delivery_integrity;
      ] );
    ( "quic.robustness",
      [
        Alcotest.test_case "idle timeout closes and quiesces" `Quick
          test_idle_timeout_close_quiesce;
        Alcotest.test_case "amplification cap" `Quick test_amplification_cap;
        Alcotest.test_case "amplification unblock (no deadlock)" `Quick
          test_amplification_unblock_no_deadlock;
        Alcotest.test_case "time-threshold loss detection" `Quick test_time_threshold_loss;
        Alcotest.test_case "persistent congestion under blackhole" `Quick
          test_persistent_congestion_blackhole;
        Alcotest.test_case "bbr starvation rate taint" `Quick test_bbr_starvation_rate_taint;
        Alcotest.test_case "rtx oracle agreement" `Quick test_rtx_oracle_agreement;
        Alcotest.test_case "pn index invariant" `Quick test_pn_index_invariant;
        Alcotest.test_case "mixed soak jobs parity" `Quick test_mixed_soak_jobs_parity;
        QCheck_alcotest.to_alcotest prop_quic_delivery_under_netem;
      ] );
    ("quic.golden", [ Alcotest.test_case "page-load matrix pinned" `Quick test_golden_matrix ]);
  ]

module Engine = Stob_sim.Engine
module Cpu = Stob_sim.Cpu
module Units = Stob_util.Units
module Endpoint = Stob_tcp.Endpoint
module Connection = Stob_tcp.Connection
module Path = Stob_tcp.Path

type point = {
  alpha : int;
  baseline_gbps : float;
  packet_gbps : float;
  tso_gbps : float;
  combined_gbps : float;
}

type config = {
  alphas : int list;
  link_gbps : float;
  rtt : float;
  warmup : float;
  measure : float;
  cc : Stob_tcp.Cc.factory;
  cc_name : string;
}

let default_config =
  {
    alphas = [ 0; 4; 8; 12; 16; 20; 24; 28; 32; 36; 40 ];
    link_gbps = 100.0;
    rtt = 50e-6;
    warmup = 0.05;
    measure = 0.15;
    cc = Stob_tcp.Cubic.make;
    cc_name = "cubic";
  }

let throughput_with_policy ~config ~policy =
  let engine = Engine.create () in
  let path =
    Path.create ~engine ~rate_bps:(Units.gbps config.link_gbps) ~delay:(config.rtt /. 2.0) ()
  in
  let cpu = Cpu.create engine in
  let hooks = Stob_core.Controller.hooks (Stob_core.Controller.create policy) in
  let conn =
    Connection.create ~engine ~path ~flow:1 ~cc:config.cc
      ~server_cpu:(cpu, Stob_tcp.Cpu_costs.default_server) ~server_hooks:hooks ()
  in
  let server = Connection.server conn in
  (* iperf3-style bulk source: keep the send queue topped up for the whole
     run via a periodic refill. *)
  let rec refill () =
    if Endpoint.established server && Endpoint.unsent server < 16_000_000 then
      Endpoint.write server 64_000_000;
    ignore (Engine.schedule engine ~delay:0.002 refill)
  in
  ignore (Engine.schedule engine ~delay:0.0 refill);
  Connection.on_established conn (fun () -> Endpoint.write (Connection.client conn) 64);
  Connection.open_ conn;
  let mark = ref 0 in
  ignore (Engine.schedule engine ~delay:config.warmup (fun () -> mark := Path.server_link_bytes path));
  Engine.run ~until:(config.warmup +. config.measure) engine;
  let bytes = Path.server_link_bytes path - !mark in
  Units.throughput_bps ~bytes ~seconds:config.measure

(* A cell result: either the alpha-independent baseline control or one
   alpha's three series.  Keeping them in one sweep lets the baseline be
   checkpointed, retried, and resumed like every other cell. *)
type measurement =
  | Baseline of float  (** bits/s, unmodified stack *)
  | Point of { packet : float; tso : float; combined : float }  (** Gb/s *)

let run ?(config = default_config) ?pool ?retries ?inject ?store ?on_report () =
  (* Each cell simulates on its own engine and draws no randomness, so the
     alpha sweep is embarrassingly parallel and trivially deterministic. *)
  let shared_fields =
    [ ("link_gbps", Printf.sprintf "%.17g" config.link_gbps);
      ("rtt", Printf.sprintf "%.17g" config.rtt);
      ("warmup", Printf.sprintf "%.17g" config.warmup);
      ("measure", Printf.sprintf "%.17g" config.measure);
      ("cc", config.cc_name) ]
  in
  let sweep_alphas = List.sort_uniq compare (List.filter (fun a -> a <> 0) config.alphas) in
  Option.iter
    (fun s ->
      Stob_store.Store.set_manifest s ~experiment:"fig3"
        ~fields:
          (("alphas", String.concat "," (List.map string_of_int config.alphas)) :: shared_fields)
        ~total:(1 + List.length sweep_alphas))
    store;
  let baseline_cell =
    {
      Stob_store.Supervisor.label = "fig3/baseline";
      config = ("point", "baseline") :: shared_fields;
      seed = 0;
      run =
        (fun ~attempt:_ ->
          Baseline (throughput_with_policy ~config ~policy:Stob_core.Policy.unmodified));
    }
  in
  let alpha_cell alpha =
    {
      Stob_store.Supervisor.label = Printf.sprintf "fig3/alpha=%d" alpha;
      config = ("point", string_of_int alpha) :: shared_fields;
      seed = 0;
      run =
        (fun ~attempt:_ ->
          let measure policy =
            Units.to_gbps ~bits_per_sec:(throughput_with_policy ~config ~policy)
          in
          Point
            {
              packet = measure (Stob_core.Strategies.incremental_packet_reduction ~alpha);
              tso = measure (Stob_core.Strategies.incremental_tso_reduction ~alpha);
              combined = measure (Stob_core.Strategies.incremental_combined ~alpha);
            });
    }
  in
  let cells = baseline_cell :: List.map alpha_cell sweep_alphas in
  let results, report =
    Evalcommon.run_cells ?pool ?retries ?inject ?store ~experiment:"fig3" cells
  in
  Option.iter (fun f -> f report) on_report;
  let baseline_gbps =
    match List.hd results with
    | Ok (Baseline bps) -> Units.to_gbps ~bits_per_sec:bps
    | Ok (Point _) -> assert false
    | Error _ -> Float.nan
  in
  let by_alpha = Hashtbl.create 16 in
  List.iter2
    (fun alpha r -> Hashtbl.replace by_alpha alpha r)
    sweep_alphas (List.tl results);
  List.map
    (fun alpha ->
      if alpha = 0 then
        {
          alpha;
          baseline_gbps;
          packet_gbps = baseline_gbps;
          tso_gbps = baseline_gbps;
          combined_gbps = baseline_gbps;
        }
      else
        match Hashtbl.find by_alpha alpha with
        | Ok (Point { packet; tso; combined }) ->
            { alpha; baseline_gbps; packet_gbps = packet; tso_gbps = tso; combined_gbps = combined }
        | Ok (Baseline _) -> assert false
        | Error _ ->
            {
              alpha;
              baseline_gbps;
              packet_gbps = Float.nan;
              tso_gbps = Float.nan;
              combined_gbps = Float.nan;
            })
    config.alphas

(* Decodes the manifest [run] records above. *)
let resume m =
  let field = Stob_store.Store.field m in
  let float name = float_of_string (field name) in
  let cc_name = field "cc" in
  run
    ~config:
      { alphas = List.map int_of_string (String.split_on_char ',' (field "alphas"));
        link_gbps = float "link_gbps"; rtt = float "rtt"; warmup = float "warmup";
        measure = float "measure"; cc = Stob_tcp.Netem_eval.cc_of_name cc_name; cc_name }

let print points =
  Printf.printf
    "Figure 3: throughput vs. maximum reduction degree (100 Gb/s link, one core)\n";
  Printf.printf "%-7s %-14s %-14s %-14s %-14s\n" "alpha" "baseline" "packet-size" "tso-size"
    "combined";
  let gbps v = if Float.is_nan v then "poisoned" else Printf.sprintf "%.1f Gb/s" v in
  List.iter
    (fun p ->
      Printf.printf "%-7d %-14s %-14s %-14s %-14s\n" p.alpha (gbps p.baseline_gbps)
        (gbps p.packet_gbps) (gbps p.tso_gbps) (gbps p.combined_gbps))
    points

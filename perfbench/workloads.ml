(* The four benchmark workloads.

   Each workload has two bodies over the same inputs.  The untraced body
   calls the experiment's own entry point ([Table2.run_on], [Fig3.run],
   [Dataset.generate], [Dl.run_population]).  The traced body drives the
   same public functions in the same order and with the same seeds, one
   layer call at a time, with a {!Tracer} span around each call.  Both
   return the same canonical results; the harness checks that they are
   equal, so the per-layer split measures the program the untraced run
   timed.

   A body returns a finisher: work that only reads the result back out
   (corpus fingerprints, the population corpus digest, the traced run's
   derived store pass) runs in the finisher, after the wall clock stops. *)

module Rng = Stob_util.Rng
module Units = Stob_util.Units
module Engine = Stob_sim.Engine
module Cpu = Stob_sim.Cpu
module Trace = Stob_net.Trace
module Packed_trace = Stob_net.Packed_trace
module Path = Stob_tcp.Path
module Endpoint = Stob_tcp.Endpoint
module Connection = Stob_tcp.Connection
module Policy = Stob_core.Policy
module Strategies = Stob_core.Strategies
module Controller = Stob_core.Controller
module Dataset = Stob_web.Dataset
module Emulate = Stob_defense.Emulate
module Features = Stob_kfp.Features
module Attack = Stob_kfp.Attack
module Dfnet = Stob_kfp.Dfnet
module Matrix = Stob_ml.Matrix
module Forest = Stob_ml.Random_forest
module Table2 = Stob_experiments.Table2
module Fig3 = Stob_experiments.Fig3
module Dl = Stob_experiments.Dl
module Population = Stob_experiments.Population
module Evalcommon = Stob_experiments.Evalcommon
module T = Tracer

type size = Default | Smoke

(* One operation of a workload — a sweep cell, a corpus or an attack
   evaluation — with its canonical result (floats as [%h]) or the reason
   it failed. *)
type op = { label : string; result : (string, string) result }

type prepared = {
  config : (string * string) list;  (** The workload config, for the run stamp. *)
  body : traced:bool -> unit -> op list;
}

let seconds_since t0 = Int64.to_float (Int64.sub (T.now_ns ()) t0) /. 1e9
let ok label fmt = Printf.ksprintf (fun s -> { label; result = Ok s }) fmt
let failed label reason = { label; result = Error reason }
let unit_interval v = Float.is_finite v && v >= 0.0 && v <= 1.0

let accuracy_op label ~mean ~std =
  if Float.is_nan mean then failed label "poisoned"
  else if not (unit_interval mean && Float.is_finite std && std >= 0.0) then
    failed label (Printf.sprintf "accuracy out of range: %h +/- %h" mean std)
  else ok label "%h %h" mean std

let per_site_text counts = String.concat "," (List.map (fun (_, n) -> string_of_int n) counts)

let corpus_op label (d : Dataset.t) =
  if Array.length d.Dataset.samples = 0 then failed label "empty corpus"
  else
    ok label "%s per_site=%s" (Evalcommon.dataset_fingerprint d)
      (per_site_text (Dataset.per_site_counts d))

(* Dataset.generate with the web layer's counts: per-visit times from
   successive progress timestamps, and packets per corpus. *)
let generate_traced ~corpus gen =
  let last = ref (T.now_ns ()) in
  let progress ~done_:_ ~total:_ =
    let now = T.now_ns () in
    T.sample "web.visit_s" (Int64.to_float (Int64.sub now !last) /. 1e9);
    last := now
  in
  let t0 = T.now_ns () in
  let d =
    T.span "web.generate" (fun () ->
        last := T.now_ns ();
        gen progress)
  in
  let dt = seconds_since t0 in
  let packets =
    Array.fold_left (fun n (s : Dataset.sample) -> n + Trace.length s.Dataset.trace) 0 d.Dataset.samples
  in
  let completed =
    Array.fold_left (fun n (s : Dataset.sample) -> if s.Dataset.completed then n + 1 else n) 0
      d.Dataset.samples
  in
  T.count "web.visits" (float_of_int (Array.length d.Dataset.samples));
  T.count "web.completed" (float_of_int completed);
  T.count "web.packets" (float_of_int packets);
  T.count ("web.packets." ^ corpus) (float_of_int packets);
  T.count ("web.generate_s." ^ corpus) dt;
  d

(* ------------------------------------------------------------------ *)
(* closed-world: the Table 2 pipeline.                                  *)

(* Page-load corpora are generated at the paper artifacts' own seed.  At
   the sizes a run affords, a corpus's cost swings with its seed (packets
   +-10 %, QUIC+Stob load time +-17 % between seeds), which would swamp the
   wall-time bound; the workload seed instead drives every draw made after
   the corpus, or the in-stack policy's parameters. *)
let corpus_seed = Table2.default_config.Table2.seed

(* Four visits per site (Table 2 quick has 20), of which sanitization
   keeps three per site; 3 folds and 40 trees as in Table 2 quick. *)
let table2_config size ~seed =
  let samples_per_site = 4 in
  let forest_trees = match size with Default -> 40 | Smoke -> 8 in
  { Table2.samples_per_site; folds = 3; forest_trees; seed; quiet = true }

type variant = Original | Split | Delayed | Combined

let prefixes = [ ("15", Some 15); ("30", Some 30); ("45", Some 45); ("All", None) ]
let variants = [ (Original, "Original"); (Split, "Split"); (Delayed, "Delayed"); (Combined, "Combined") ]

let table2_ops (r : Table2.result) =
  List.concat_map
    (fun (row : Table2.row) ->
      List.map2
        (fun (_, vname) (c : Table2.cell) ->
          accuracy_op (Printf.sprintf "N=%s/%s" row.Table2.n_label vname) ~mean:c.Table2.mean
            ~std:c.Table2.std)
        variants
        [ row.Table2.original; row.Table2.split; row.Table2.delayed; row.Table2.combined ])
    r.Table2.rows
  @ [ ok "per_site" "%s" (per_site_text r.Table2.per_site) ]

(* Table2.evaluate_variant, one layer call at a time. *)
let table2_cell ~(config : Table2.config) ~(dataset : Dataset.t) ~variant ~first_n =
  let rng = Rng.create (config.Table2.seed + 17) in
  let transform name f =
    T.span name (fun () ->
        Dataset.map_traces dataset (fun s ->
            let input = s.Dataset.trace in
            let output = f input in
            let n_in = Trace.length input in
            T.count "defense.packets_in" (float_of_int n_in);
            T.count "defense.packets_out" (float_of_int (Trace.length output));
            T.count "defense.packets_useful"
              (float_of_int (match first_n with Some n -> min n n_in | None -> n_in));
            output))
  in
  let defended =
    match variant with
    | Original -> T.span "web.map_traces" (fun () -> Dataset.map_traces dataset (fun s -> s.Dataset.trace))
    | Split -> transform "defense.split" (fun t -> Emulate.split ?first_n t)
    | Delayed -> transform "defense.delay" (fun t -> Emulate.delay ?first_n ~rng t)
    | Combined -> transform "defense.combined" (fun t -> Emulate.combined ?first_n ~rng t)
  in
  let view (s : Dataset.sample) =
    match first_n with None -> s.Dataset.trace | Some n -> Trace.prefix s.Dataset.trace n
  in
  let n = Array.length defended.Dataset.samples in
  let feature_cache = Hashtbl.create n in
  Array.iteri
    (fun i s ->
      let features =
        T.span "kfp.extract" (fun () ->
            let v = view s in
            T.count "kfp.traces" 1.0;
            T.count "kfp.packets" (float_of_int (Trace.length v));
            Features.extract v)
      in
      Hashtbl.add feature_cache i features)
    defended.Dataset.samples;
  let index = Hashtbl.create n in
  Array.iteri (fun i s -> Hashtbl.replace index s i) defended.Dataset.samples;
  let fold_rng = Rng.create (config.Table2.seed + 23) in
  let folds =
    T.span "web.folds" (fun () -> Dataset.folds defended ~rng:fold_rng ~k:config.Table2.folds)
  in
  let n_classes = Array.length defended.Dataset.site_names in
  let forest = { Forest.default_params with n_trees = config.Table2.forest_trees; seed = config.Table2.seed } in
  let accuracies =
    List.map
      (fun ((train : Dataset.t), (test : Dataset.t)) ->
        let feats (d : Dataset.t) =
          T.span "ml.matrix" (fun () ->
              Matrix.of_rows
                (Array.map (fun s -> Hashtbl.find feature_cache (Hashtbl.find index s)) d.Dataset.samples))
        in
        let labels (d : Dataset.t) = Array.map (fun (s : Dataset.sample) -> s.Dataset.label) d.Dataset.samples in
        let train_matrix = feats train in
        let attack =
          T.span "ml.train" (fun () ->
              Attack.train_m ~forest ~n_classes ~matrix:train_matrix ~labels:(labels train) ())
        in
        T.count "ml.trees" (float_of_int forest.Forest.n_trees);
        let test_matrix = feats test in
        T.count "ml.rows" (float_of_int (Matrix.n_rows test_matrix));
        T.span "ml.predict" (fun () ->
            Attack.evaluate_m attack ~mode:Attack.Forest_vote ~matrix:test_matrix ~labels:(labels test)))
      folds
  in
  let mean, std = Stob_ml.Eval.mean_std accuracies in
  { Table2.mean; std }

(* Table2.run_on, one cell at a time. *)
let table2_traced ~config dataset =
  let clean = T.span "web.sanitize" (fun () -> Dataset.sanitize dataset) in
  ignore (T.span "sweep.fingerprint" (fun () -> Evalcommon.dataset_fingerprint clean));
  let cell (n_label, first_n) (variant, vname) =
    T.cell ("cell.table2/N=" ^ n_label ^ "/" ^ vname) (fun () ->
        table2_cell ~config ~dataset:clean ~variant ~first_n)
  in
  let rows =
    List.map
      (fun ((n_label, _) as prefix) ->
        match List.map (cell prefix) variants with
        | [ original; split; delayed; combined ] -> { Table2.n_label; original; split; delayed; combined }
        | _ -> assert false)
      prefixes
  in
  { Table2.rows; per_site = Dataset.per_site_counts clean }

let closed_world size ~seed =
  let config = table2_config size ~seed in
  let samples_per_site = config.Table2.samples_per_site in
  let body ~traced =
    let corpus, result =
      if traced then begin
        let corpus =
          generate_traced ~corpus:"tcp" (fun progress ->
              Dataset.generate ~samples_per_site ~seed:corpus_seed ~progress ())
        in
        (corpus, table2_traced ~config corpus)
      end
      else begin
        let corpus = Dataset.generate ~samples_per_site ~seed:corpus_seed () in
        (corpus, Table2.run_on ~config corpus)
      end
    in
    fun () -> corpus_op "corpus.tcp" corpus :: table2_ops result
  in
  {
    config =
      [ ("entry", "Table2.run_on");
        ("corpus_seed", string_of_int corpus_seed);
        ("samples_per_site", string_of_int samples_per_site);
        ("folds", string_of_int config.Table2.folds);
        ("trees", string_of_int config.Table2.forest_trees);
        ("cells", "16") ];
    body;
  }

(* ------------------------------------------------------------------ *)
(* bulk-stack: the Fig 3 sweep.                                         *)

(* The seed picks which reduction degrees alpha are swept. *)
let fig3_config size ~seed =
  let n_alphas, measure = match size with Default -> (2, 0.05) | Smoke -> (1, 0.005) in
  let candidates = [| 4; 8; 12; 16; 20; 24; 28; 32; 36; 40 |] in
  let picked = Rng.sample_without_replacement (Rng.create seed) n_alphas (Array.length candidates) in
  let alphas = List.sort compare (Array.to_list (Array.map (fun i -> candidates.(i)) picked)) in
  { Fig3.default_config with alphas = 0 :: alphas; measure }

let gbps_ok v = Float.is_finite v && v > 0.0

let fig3_ops (points : Fig3.point list) =
  List.concat_map
    (fun (p : Fig3.point) ->
      if p.Fig3.alpha = 0 then
        [ (if gbps_ok p.Fig3.baseline_gbps then ok "baseline" "%h" p.Fig3.baseline_gbps
           else failed "baseline" (Printf.sprintf "goodput %h" p.Fig3.baseline_gbps)) ]
      else
        let label = Printf.sprintf "alpha=%d" p.Fig3.alpha in
        let vs = [ p.Fig3.packet_gbps; p.Fig3.tso_gbps; p.Fig3.combined_gbps ] in
        if List.for_all gbps_ok vs then
          [ ok label "%h %h %h" p.Fig3.packet_gbps p.Fig3.tso_gbps p.Fig3.combined_gbps ]
        else [ failed label "goodput not positive" ])
    points

(* Fig3.throughput_with_policy over the public API, with the engine loop
   under its own span. *)
let throughput_traced ~(config : Fig3.config) ~policy =
  let engine, path, conn =
    T.span "sim.setup" (fun () ->
        let engine = Engine.create () in
        let path =
          Path.create ~engine ~rate_bps:(Units.gbps config.Fig3.link_gbps) ~delay:(config.Fig3.rtt /. 2.0) ()
        in
        let cpu = Cpu.create engine in
        let hooks = Controller.hooks (Controller.create policy) in
        let conn =
          Connection.create ~engine ~path ~flow:1 ~cc:config.Fig3.cc
            ~server_cpu:(cpu, Stob_tcp.Cpu_costs.default_server) ~server_hooks:hooks ()
        in
        (engine, path, conn))
  in
  let server = Connection.server conn in
  let rec refill () =
    if Endpoint.established server && Endpoint.unsent server < 16_000_000 then
      Endpoint.write server 64_000_000;
    ignore (Engine.schedule engine ~delay:0.002 refill)
  in
  ignore (Engine.schedule engine ~delay:0.0 refill);
  Connection.on_established conn (fun () -> Endpoint.write (Connection.client conn) 64);
  Connection.open_ conn;
  let mark = ref 0 in
  ignore (Engine.schedule engine ~delay:config.Fig3.warmup (fun () -> mark := Path.server_link_bytes path));
  let until = config.Fig3.warmup +. config.Fig3.measure in
  let w0 = Gc.minor_words () in
  let t0 = T.now_ns () in
  T.span "sim.run" (fun () -> Engine.run ~until engine);
  T.count "sim.run_s" (seconds_since t0);
  T.count "sim.minor_words" (Gc.minor_words () -. w0);
  T.count "sim.events" (float_of_int (Engine.events_processed engine));
  T.count "sim.simulated_s" until;
  let bytes = Path.server_link_bytes path - !mark in
  Units.throughput_bps ~bytes ~seconds:config.Fig3.measure

(* Fig3.run's cells in its order: the baseline, then each distinct
   nonzero alpha's packet, TSO and combined policies. *)
let fig3_traced ~(config : Fig3.config) =
  let baseline_gbps =
    T.cell "cell.fig3/baseline" (fun () ->
        Units.to_gbps ~bits_per_sec:(throughput_traced ~config ~policy:Policy.unmodified))
  in
  let sweep = List.sort_uniq compare (List.filter (fun a -> a <> 0) config.Fig3.alphas) in
  let measured =
    List.map
      (fun alpha ->
        T.cell (Printf.sprintf "cell.fig3/alpha=%d" alpha) (fun () ->
            let measure policy = Units.to_gbps ~bits_per_sec:(throughput_traced ~config ~policy) in
            let packet = measure (Strategies.incremental_packet_reduction ~alpha) in
            let tso = measure (Strategies.incremental_tso_reduction ~alpha) in
            let combined = measure (Strategies.incremental_combined ~alpha) in
            (alpha, (packet, tso, combined))))
      sweep
  in
  List.map
    (fun alpha ->
      if alpha = 0 then
        { Fig3.alpha; baseline_gbps; packet_gbps = baseline_gbps; tso_gbps = baseline_gbps;
          combined_gbps = baseline_gbps }
      else
        let packet_gbps, tso_gbps, combined_gbps = List.assoc alpha measured in
        { Fig3.alpha; baseline_gbps; packet_gbps; tso_gbps; combined_gbps })
    config.Fig3.alphas

let bulk_stack size ~seed =
  let config = fig3_config size ~seed in
  let body ~traced =
    let points = if traced then fig3_traced ~config else Fig3.run ~config () in
    fun () -> fig3_ops points
  in
  {
    config =
      [ ("entry", "Fig3.run");
        ("alphas", String.concat "," (List.map string_of_int config.Fig3.alphas));
        ("link_gbps", Printf.sprintf "%g" config.Fig3.link_gbps);
        ("warmup_s", Printf.sprintf "%g" config.Fig3.warmup);
        ("measure_s", Printf.sprintf "%g" config.Fig3.measure);
        ("cc", config.Fig3.cc_name) ];
    body;
  }

(* ------------------------------------------------------------------ *)
(* transport-corpus: the E6/E8b page-load corpora.                      *)

(* The four corpora of Ablation.run_fidelity (E6) and run_transport
   (E8b), at the artifacts' corpus seed; the policy is built afresh per
   corpus, as there.  The workload seed draws the in-stack split+delay
   policy's parameters around the paper's (split above 1200 B, stretch
   gaps by 10-30 %). *)
let transport_corpora =
  [ ("tcp", `Tcp, false); ("tcp_stob", `Tcp, true); ("quic", `Quic, false); ("quic_stob", `Quic, true) ]

let policy_params ~seed =
  let rng = Rng.create seed in
  let threshold = 1100 + Rng.int rng 201 in
  let lo = 0.08 +. Rng.float rng 0.04 in
  let hi = 0.28 +. Rng.float rng 0.04 in
  (threshold, lo, hi)

let transport_corpus _size ~seed =
  let threshold, lo, hi = policy_params ~seed in
  (* Two visits per site is the least that survives sanitization: with
     one, a single failed visit balances every class down to zero. *)
  let samples_per_site = 2 in
  let body ~traced =
    let corpora =
      List.map
        (fun (name, transport, stob) ->
          let policy = if stob then Some (Strategies.stack_combined ~threshold ~lo ~hi ()) else None in
          let generate ?progress () =
            Dataset.generate ~samples_per_site ~seed:corpus_seed ?policy ~transport ?progress ()
          in
          let clean =
            if traced then
              T.cell ("cell.corpus/" ^ name) (fun () ->
                  let d = generate_traced ~corpus:name (fun progress -> generate ~progress ()) in
                  T.span "web.sanitize" (fun () -> Dataset.sanitize d))
            else Dataset.sanitize (generate ())
          in
          (name, clean))
        transport_corpora
    in
    fun () -> List.map (fun (name, d) -> corpus_op ("corpus." ^ name) d) corpora
  in
  {
    config =
      [ ("entry", "Dataset.generate+sanitize");
        ("corpora", String.concat "," (List.map (fun (n, _, _) -> n) transport_corpora));
        ("samples_per_site", string_of_int samples_per_site);
        ("corpus_seed", string_of_int corpus_seed);
        ("policy", Printf.sprintf "split>%dB stretch %h-%h" threshold lo hi) ];
    body;
  }

(* ------------------------------------------------------------------ *)
(* population: the dl-population pipeline.                              *)

let monitored_sites = 9

(* (users, per-site cap, trees, epochs).  With 100 users every monitored
   site gets at least 18 visits for seeds 1-10, so the cap of 16 fixes the
   attack set at 144 traces and the attack layers' work does not swing with
   the seed; only the ~830-1080 journaled flows do. *)
let population_params size =
  match size with Default -> (100, 16, 40, 8) | Smoke -> (20, 4, 8, 1)

let population_config ~users ~seed = { Population.default_config with Population.users; seed; shards = 4 }

(* Dl.run_population, one layer call at a time. *)
let population_traced ~users ~max_per_site ~trees ~epochs ~seed ~state_dir =
  let config = population_config ~users ~seed in
  let summary = T.span "population.generate" (fun () -> Population.generate config ~state_dir) in
  let by_class = Array.make monitored_sites [] in
  for shard = 0 to config.Population.shards - 1 do
    let plan = T.span "population.replan" (fun () -> Population.plan_shard config ~shard) in
    let i = ref 0 in
    T.span "store.read" (fun () ->
        Population.iter_shard_traces ~state_dir ~shard (fun trace ->
            if !i >= Array.length plan then failwith "dl: population journal holds more traces than its plan";
            let v = plan.(!i) in
            incr i;
            T.count "store.frames" 1.0;
            if v.Population.site < monitored_sites then
              by_class.(v.Population.site) <- trace :: by_class.(v.Population.site)))
  done;
  let master = Rng.create (seed + 11) in
  let class_rngs = Array.init monitored_sites (fun _ -> Rng.split master) in
  let train_traces = ref [] and train_labels = ref [] in
  let test_traces = ref [] and test_labels = ref [] in
  for c = monitored_sites - 1 downto 0 do
    let all = Array.of_list (List.rev by_class.(c)) in
    let idx = Array.init (Array.length all) Fun.id in
    Rng.shuffle class_rngs.(c) idx;
    let take = min max_per_site (Array.length all) in
    if take >= 2 then begin
      let n_train = max 1 (min (take - 1) (int_of_float (0.7 *. float_of_int take))) in
      for j = 0 to take - 1 do
        let tr = all.(idx.(j)) in
        if j < n_train then begin
          train_traces := tr :: !train_traces;
          train_labels := c :: !train_labels
        end
        else begin
          test_traces := tr :: !test_traces;
          test_labels := c :: !test_labels
        end
      done
    end
  done;
  let train_traces = Array.of_list !train_traces and test_traces = Array.of_list !test_traces in
  let train_labels = Array.of_list !train_labels and test_labels = Array.of_list !test_labels in
  if Array.length train_traces = 0 || Array.length test_traces = 0 then
    failwith "dl: population corpus has too few monitored visits; raise --users";
  let extract traces =
    Array.map
      (fun pt ->
        T.span "kfp.extract_packed" (fun () ->
            T.count "kfp.traces" 1.0;
            T.count "kfp.packets" (float_of_int (Packed_trace.length pt));
            Features.extract_packed pt))
      traces
  in
  let forest = { Forest.default_params with n_trees = trees; seed } in
  let kfp =
    let feats = extract train_traces in
    T.span "ml.train" (fun () ->
        Attack.train ~forest ~n_classes:monitored_sites ~features:feats ~labels:train_labels ())
  in
  T.count "ml.trees" (float_of_int trees);
  let kfp_acc =
    let feats = extract test_traces in
    T.count "ml.rows" (float_of_int (Array.length feats));
    T.span "ml.predict" (fun () ->
        Attack.evaluate kfp ~mode:Attack.Forest_vote ~features:feats ~labels:test_labels)
  in
  let net =
    let xs = T.span "nn.encode" (fun () -> Dfnet.encode_packed train_traces) in
    T.span "nn.train" (fun () ->
        Dfnet.train ~epochs ~seed ~n_classes:monitored_sites ~xs ~labels:train_labels ())
  in
  T.count "nn.epochs" (float_of_int epochs);
  let df_acc =
    let xs = T.span "nn.encode" (fun () -> Dfnet.encode_packed test_traces) in
    T.span "nn.predict" (fun () -> Dfnet.accuracy_m net ~xs ~labels:test_labels)
  in
  ( summary,
    {
      Dl.users;
      flows = summary.Population.flows;
      monitored_sites;
      train_samples = Array.length train_traces;
      test_samples = Array.length test_traces;
      kfp = kfp_acc;
      dfnet = df_acc;
    } )

(* The derived store split: a second plan + synthesize pass over the same
   visits, outside the wall clock.  Journal writing is what generation
   costs beyond it. *)
let population_derived_pass config =
  let universe = Population.universe config in
  for shard = 0 to config.Population.shards - 1 do
    let plan = T.span "population.plan" (fun () -> Population.plan_shard config ~shard) in
    T.span "population.synth" (fun () ->
        Array.iter
          (fun v ->
            let pt = Population.synthesize config ~universe v in
            T.count "population.flows" 1.0;
            T.count "population.events" (float_of_int (Packed_trace.length pt)))
          plan)
  done

let population size ~seed ~state_dir =
  let users, max_per_site, trees, epochs = population_params size in
  let config = population_config ~users ~seed in
  let body ~traced =
    let summary, result =
      if traced then
        let summary, result = population_traced ~users ~max_per_site ~trees ~epochs ~seed ~state_dir in
        (Some summary, result)
      else (None, Dl.run_population ~users ~trees ~epochs ~max_per_site ~seed ~quiet:true ~state_dir ())
    in
    fun () ->
      (* Untraced, the digest comes from resuming the finished run: every
         shard is served from the state dir's journal. *)
      let summary =
        match summary with Some s -> s | None -> Population.generate config ~state_dir
      in
      if traced then begin
        T.count "store.bytes" (float_of_int summary.Population.bytes);
        population_derived_pass config
      end;
      let corpus =
        if summary.Population.flows > 0 then
          ok "corpus" "%s flows=%d train=%d test=%d" summary.Population.corpus_digest
            summary.Population.flows result.Dl.train_samples result.Dl.test_samples
        else failed "corpus" "no flows"
      in
      let acc label v = if unit_interval v then ok label "%h" v else failed label (Printf.sprintf "accuracy %h" v) in
      [ corpus; acc "kfp" result.Dl.kfp; acc "dfnet" result.Dl.dfnet ]
  in
  {
    config =
      [ ("entry", "Dl.run_population");
        ("users", string_of_int users);
        ("shards", string_of_int config.Population.shards);
        ("trees", string_of_int trees);
        ("epochs", string_of_int epochs);
        ("max_per_site", string_of_int max_per_site) ];
    body;
  }

let names = [ "closed-world"; "bulk-stack"; "transport-corpus"; "population" ]

let prepare name size ~seed ~state_dir =
  match name with
  | "closed-world" -> closed_world size ~seed
  | "bulk-stack" -> bulk_stack size ~seed
  | "transport-corpus" -> transport_corpus size ~seed
  | "population" -> population size ~seed ~state_dir
  | _ -> invalid_arg ("unknown workload " ^ name)

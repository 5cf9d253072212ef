module Store = Stob_store.Store
module Sv = Stob_store.Supervisor

type size = { flag : string; doc : string; full : int; quick : int }
type state = Stateless | Sweep | Corpus

(* What an entry's action sees: its resolved sizes and seed, whether this
   is the quick run, and the worker pool. *)
type ctx = { size : string -> int; quick : bool; seed : int; pool : Stob_par.Pool.t option }

type action =
  | Print of (ctx -> unit)
  | Journaled of { run : ctx -> unit Sv.sweep; resume : Store.manifest -> unit Sv.sweep }
  | Generates of (ctx -> state_dir:string -> unit)

type t = {
  name : string;
  title : string;
  doc : string;
  sizes : size list;
  seeded : bool;
  switch : (string * string) option;
  action : action;
}

let journaled (print : 'r -> unit) ~(run : ctx -> 'r Sv.sweep)
    ~(resume : Store.manifest -> 'r Sv.sweep) =
  let printed (f : 'r Sv.sweep) : unit Sv.sweep =
   fun ?pool ?retries ?inject ?store ?on_report () ->
    print (f ?pool ?retries ?inject ?store ?on_report ())
  in
  Journaled { run = (fun c -> printed (run c)); resume = (fun m -> printed (resume m)) }

let entry ?(sizes = []) ?(seeded = false) ?switch name ~title ~doc action =
  { name; title; doc; sizes; seeded; switch; action }

let samples ?(doc = "Samples per site.") full quick = { flag = "samples"; doc; full; quick }
let trees full quick = { flag = "trees"; doc = "Random-forest size."; full; quick }
let folds full quick = { flag = "folds"; doc = "Cross-validation folds."; full; quick }
let epochs full quick = { flag = "epochs"; doc = "DF-net training epochs."; full; quick }

let all =
  [
    entry "fig1" ~title:"Figure 1 (E4): the stack model"
      ~doc:"Render Figure 1 (the stack model)"
      (Print (fun _ -> Arch.print_figure1 ()));
    entry "fig2" ~title:"Figure 2 (E5): the Stob architecture"
      ~doc:"Render Figure 2 (the Stob architecture)"
      (Print (fun _ -> Arch.print_figure2 ()));
    entry "table1" ~title:"Table 1 (E3/E8): defense taxonomy with measured overheads"
      ~doc:"Reproduce Table 1 (defense taxonomy + measured overheads)"
      (Print (fun _ -> Table1.print (Table1.run ())));
    entry "fig3" ~title:"Figure 3 (E2): throughput under packet/TSO size adjustment"
      ~doc:"Reproduce Figure 3 (throughput under packet/TSO adjustment)"
      (journaled Fig3.print ~resume:Fig3.resume ~run:(fun c ->
           let config =
             if c.quick then { Fig3.default_config with alphas = [ 0; 8; 16; 24; 32; 40 ] }
             else Fig3.default_config
           in
           Fig3.run ~config));
    entry "ablation-cca" ~title:"Ablation E7: CCA interplay and safety audit"
      ~doc:"E7: CCA interplay and the safety audit"
      (Print (fun _ -> Ablation.print_cca (Ablation.run_cca ())));
    entry "table2" ~title:"Table 2 (E1): k-FP accuracy under emulated countermeasures"
      ~doc:"Reproduce Table 2 (k-FP accuracy under countermeasures)"
      ~sizes:
        [ samples ~doc:"Page-load samples to generate per site." 100 20; folds 5 3; trees 100 40 ]
      ~seeded:true
      (journaled Table2.print ~resume:Table2.resume ~run:(fun c ->
           Table2.run
             ~config:
               {
                 Table2.default_config with
                 samples_per_site = c.size "samples";
                 folds = c.size "folds";
                 forest_trees = c.size "trees";
                 seed = c.seed;
               }));
    entry "ablation-stack" ~title:"Ablation E6: emulated vs. in-stack enforcement"
      ~doc:"E6: emulated vs. in-stack enforcement"
      ~sizes:[ samples 40 15; trees 100 40 ]
      (Print
         (fun c ->
           let samples_per_site = c.size "samples" and trees = c.size "trees" in
           Ablation.print_fidelity (Ablation.run_fidelity ~samples_per_site ~trees ())));
    entry "ablation-quic" ~title:"Ablation E8b: TCP vs QUIC fingerprintability"
      ~doc:"E8b: TCP vs QUIC fingerprintability"
      ~sizes:[ samples 40 15; trees 100 40 ]
      (Print
         (fun c ->
           let samples_per_site = c.size "samples" and trees = c.size "trees" in
           Ablation.print_transport (Ablation.run_transport ~samples_per_site ~trees ())));
    entry "openworld" ~title:"Extension: open-world evaluation (k-FP's native setting)"
      ~doc:"Open-world k-FP evaluation against unseen background sites"
      ~sizes:[ samples ~doc:"Samples per monitored site." 30 12; trees 100 40 ]
      ~seeded:true
      (journaled Openworld.print ~resume:Openworld.resume
         ~run:(fun c ?pool ?retries ?inject ?store ?on_report () ->
           Openworld.run ~samples_per_site:(c.size "samples") ~trees:(c.size "trees") ~seed:c.seed
             ?pool ?retries ?inject ?store ?on_report ()));
    entry "cca-id" ~title:"Extension: CCA identification (Section 5.2)"
      ~doc:"Passive CCA identification and Stob hiding (Section 5.2)"
      ~sizes:[ { flag = "flows"; doc = "Flows per CCA."; full = 40; quick = 15 }; trees 100 50 ]
      (Print
         (fun c ->
           Cca_id.print (Cca_id.run ~flows_per_cca:(c.size "flows") ~trees:(c.size "trees") ())));
    entry "httpos"
      ~title:"Extension: HTTPOS-style client-side defense and its cost (Section 2.3)"
      ~doc:"HTTPOS-style client-side defense: protection vs load-time cost"
      ~sizes:[ samples 30 12; trees 100 40 ]
      (Print
         (fun c ->
           let samples_per_site = c.size "samples" and trees = c.size "trees" in
           Httpos.print (Httpos.run ~samples_per_site ~trees ())));
    entry "importance" ~title:"Extension: feature importance under defense"
      ~doc:"Feature importance before/after defense"
      ~sizes:[ samples 30 12; trees 100 40 ]
      (Print
         (fun c ->
           Importance.print
             (Importance.run ~samples_per_site:(c.size "samples") ~trees:(c.size "trees") ())));
    entry "early-curve" ~title:"Extension: early-detection curve (censorship setting)"
      ~doc:"k-FP accuracy as a function of packets observed, undefended and defended"
      ~sizes:[ samples 60 15; trees 100 40 ]
      (Print
         (fun c ->
           Earlycurve.print
             (Earlycurve.run ~samples_per_site:(c.size "samples") ~trees:(c.size "trees") ())));
    entry "dl" ~title:"Extension: deep-learning vs feature-engineered attacks"
      ~doc:
        "Deep-learning (DF-lite CNN) vs feature-engineered (k-FP) attacks, undefended and under \
         the combined defense"
      ~sizes:[ samples 60 15; trees 100 40; epochs 30 10 ]
      ~seeded:true
      (journaled Dl.print ~resume:Dl.resume
         ~run:(fun c ?pool ?retries ?inject ?store ?on_report () ->
           Dl.run ~samples_per_site:(c.size "samples") ~trees:(c.size "trees")
             ~epochs:(c.size "epochs") ~seed:c.seed ?pool ?retries ?inject ?store ?on_report ()));
    entry "dl-population" ~title:"Extension: DL vs k-FP on the population-scale corpus"
      ~doc:
        "Evaluate both attack families on the population-scale packed corpus (generated \
         crash-safely under --state-dir) instead of the standard per-site corpus"
      ~sizes:
        [ { flag = "users"; doc = "Population size."; full = 80; quick = 40 };
          trees 100 40; epochs 15 8 ]
      ~seeded:true ~switch:("dl", "population")
      (Generates
         (fun c ~state_dir ->
           Dl.print_population
             (Dl.run_population ~users:(c.size "users") ~trees:(c.size "trees")
                ~epochs:(c.size "epochs") ~seed:c.seed ?pool:c.pool ~state_dir ())));
    entry "pareto" ~title:"Extension: Stob policy sweep (protection vs overhead frontier)"
      ~doc:"Sweep Stob policies and report the protection-vs-overhead Pareto frontier"
      ~sizes:[ samples 30 12; trees 100 40; folds 3 3 ]
      ~seeded:true
      (journaled Pareto.print ~resume:Pareto.resume
         ~run:(fun c ?pool ?retries ?inject ?store ?on_report () ->
           Pareto.run ~samples_per_site:(c.size "samples") ~trees:(c.size "trees")
             ~folds:(c.size "folds") ~seed:c.seed ?pool ?retries ?inject ?store ?on_report ()));
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let state e =
  match e.action with Print _ -> Stateless | Journaled _ -> Sweep | Generates _ -> Corpus

(* The one store/verdict wrapper both frontends share.  The tally and a
   degraded store's durability report go to stderr with the rest of the
   progress chatter: stdout stays pure results, so a resumed run's stdout
   is byte-identical to an uninterrupted one.  Completion over
   durability: a sweep that lost its journal mid-run (disk full) still
   finishes, but the operator hears about it. *)
let with_journal ?pool ?state_dir ~retries ~strict ?inject ?on_report (f : unit Sv.sweep) =
  let report = ref None in
  let on_report r =
    report := Some r;
    Option.iter (fun g -> g r) on_report
  in
  let go store = f ?pool ~retries ?inject ?store ~on_report () in
  (match state_dir with
  | None -> go None
  | Some dir ->
      let store = Store.open_ dir in
      Fun.protect
        ~finally:(fun () ->
          if Store.degraded store <> None then
            Format.eprintf "@[store: %a@]@." Store.pp_report (Store.report store);
          Store.close store)
        (fun () -> go (Some store)));
  match !report with
  | None -> true
  | Some r ->
      Format.eprintf "@[sweep: %a@]@." Sv.pp_report r;
      let poisoned = List.length r.Sv.poisoned in
      if strict && poisoned > 0 then
        Printf.eprintf "strict: failing on %d poisoned cell(s)\n%!" poisoned;
      not (strict && poisoned > 0)

let run ?pool ?(quick = false) ?(sizes = []) ?(seed = 42) ?state_dir ?(retries = 0)
    ?(strict = false) ?inject ?on_report e =
  let size flag =
    match List.assoc_opt flag sizes with
    | Some v -> v
    | None -> (
        match List.find_opt (fun s -> s.flag = flag) e.sizes with
        | Some s -> if quick then s.quick else s.full
        | None -> invalid_arg (Printf.sprintf "Catalog.run: %s declares no size %S" e.name flag))
  in
  let c = { size; quick; seed; pool } in
  match e.action with
  | Print f ->
      f c;
      true
  | Journaled { run; _ } ->
      with_journal ?pool ?state_dir ~retries ~strict ?inject ?on_report (run c)
  | Generates f -> (
      match state_dir with
      | Some dir ->
          f c ~state_dir:dir;
          true
      | None ->
          let dir = Filename.temp_dir ("stob-" ^ e.name ^ ".") "" in
          Fun.protect
            ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
            (fun () -> f c ~state_dir:dir);
          true)

let resume ?pool ?(retries = 0) ?(strict = false) ?inject ?on_report dir =
  if not (Sys.file_exists dir) then
    failwith
      (Printf.sprintf
         "%s: no such directory (state directories are created by running a sweep with \
          --state-dir)"
         dir);
  match Store.peek dir with
  | None, _ -> failwith (Printf.sprintf "%s records no sweep (run one with --state-dir first)" dir)
  | Some m, _ -> (
      match find m.Store.experiment with
      | Some { action = Journaled { resume; _ }; _ } ->
          Printf.eprintf "resuming %s sweep from %s (%d cells)\n%!" m.Store.experiment dir
            m.Store.total;
          with_journal ?pool ~state_dir:dir ~retries ~strict ?inject ?on_report (resume m)
      | Some _ | None ->
          failwith (Printf.sprintf "don't know how to resume a %S sweep" m.Store.experiment))

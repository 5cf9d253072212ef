(* stobctl: command-line interface to the Stob reproduction.

   Subcommands cover the whole pipeline: dataset generation, the k-FP
   attack, defenses and overheads, the throughput experiments, the chaos
   battery, and the architecture renderings.  `stobctl <cmd> --help`
   documents each.

   Argument validation lives entirely in Cmdliner converters: a bad value
   is a parse error (exit code 124, documented under EXIT STATUS) rather
   than an ad-hoc mid-run exit.  Exit code 1 is reserved for failed
   evaluation gates. *)

open Cmdliner
open Stob_experiments
module Store = Stob_store.Store
module Journal = Stob_store.Journal

(* --- exit codes -------------------------------------------------------- *)

(* One shared table so every subcommand's EXIT STATUS section documents
   the same contract. *)
let exits =
  Cmd.Exit.info 1
    ~doc:
      "on a failed evaluation gate: a netem cell failed to converge, a chaos cell crashed, \
       livelocked, left its page load incomplete, or (no-fault cells) reported an invariant \
       violation, or a soak gate failed.  Also: a sweep run with $(b,--strict) that recorded \
       poisoned cells, $(b,gen-dataset) refusing to overwrite an existing export, \
       $(b,resume)/$(b,status)/$(b,scrub)/$(b,compact) on a state directory that is missing, \
       empty, or not a stob sweep (foreign journal magic), and $(b,scrub) without \
       $(b,--repair) finding a damaged journal tail."
  :: Cmd.Exit.defaults

let cmd_info name ~doc = Cmd.info name ~doc ~exits

(* --- argument converters ----------------------------------------------- *)

let pos_int_conv ~docv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "'%s' is not a positive integer" s))
  in
  Arg.conv ~docv (parse, Format.pp_print_int)

let nonneg_int_conv ~docv =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "'%s' is not a non-negative integer" s))
  in
  Arg.conv ~docv (parse, Format.pp_print_int)

let bounded_float ~docv ~what check =
  let parse s =
    match float_of_string_opt s with
    | Some v when check v -> Ok v
    | Some _ | None -> Error (`Msg (Printf.sprintf "'%s' is not %s" s what))
  in
  Arg.conv ~docv (parse, fun fmt v -> Format.fprintf fmt "%g" v)

let prob_conv =
  bounded_float ~docv:"P" ~what:"a probability in [0, 1]" (fun v -> v >= 0.0 && v <= 1.0)

let pos_float_conv ~docv = bounded_float ~docv ~what:"a positive number" (fun v -> v > 0.0)
let nonneg_float_conv ~docv = bounded_float ~docv ~what:"a non-negative number" (fun v -> v >= 0.0)

(* --- shared options --------------------------------------------------- *)

let seed =
  let doc = "Seed for all pseudo-randomness (experiments are reproducible)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs =
  let doc =
    "Worker domains for the parallel sections (dataset generation, forest training, \
     cross-validation, throughput sweeps).  Results are independent of this value; 1 means \
     sequential."
  in
  Arg.(value & opt (pos_int_conv ~docv:"N") 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Run [f] with [Some pool] of [jobs] domains (or [None] when sequential),
   always joining the workers afterwards. *)
let with_jobs jobs f =
  if jobs <= 1 then f None
  else Stob_par.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool))

(* Crash-safe sweep options, shared by every journaled catalog sweep,
   [resume] and [soak]. *)

let state_dir_arg =
  let doc =
    "Durable sweep state: journal every finished cell into $(docv) so a killed run can be \
     picked up with $(b,stobctl resume) (or by re-running the same command), recomputing only \
     the missing cells.  One directory holds exactly one sweep."
  in
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let retries_arg =
  let doc =
    "Retry a raising sweep cell up to $(docv) more times before recording it as poisoned."
  in
  Arg.(value & opt (nonneg_int_conv ~docv:"N") 0 & info [ "retries" ] ~docv:"N" ~doc)

let required_state_dir ~doc =
  Arg.(required & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let corpus_dir_arg =
  let doc =
    "Generate (or resume) the population corpus under $(docv); without it, the corpus goes to a \
     temporary directory removed afterwards."
  in
  Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)

let strict_arg =
  let doc =
    "Exit non-zero when any sweep cell ends up poisoned (default: report the failures and \
     complete)."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let samples =
  let doc = "Page-load samples to generate per site." in
  Arg.(value & opt (pos_int_conv ~docv:"N") 100 & info [ "samples" ] ~docv:"N" ~doc)

let folds =
  let doc = "Cross-validation folds." in
  Arg.(value & opt (pos_int_conv ~docv:"K") 5 & info [ "folds" ] ~docv:"K" ~doc)

let trees =
  let doc = "Random-forest size." in
  Arg.(value & opt (pos_int_conv ~docv:"N") 100 & info [ "trees" ] ~docv:"N" ~doc)

(* Resolves to (name, profile) at parse time: an unknown site is a usage
   error, not a mid-run crash. *)
let site_conv =
  let parse name =
    match Stob_web.Sites.find name with
    | profile -> Ok (name, profile)
    | exception Not_found ->
        Error
          (`Msg
             (Printf.sprintf "unknown site %s (known: %s)" name
                (String.concat ", " Stob_web.Sites.names)))
  in
  Arg.conv ~docv:"SITE" (parse, fun fmt (name, _) -> Format.pp_print_string fmt name)

let site =
  let doc = "Monitored site (one of the nine paper sites)." in
  Arg.(
    value
    & opt site_conv ("bing.com", Stob_web.Sites.find "bing.com")
    & info [ "site" ] ~docv:"SITE" ~doc)

let policy_names = List.map fst (Stob_core.Strategies.all_named ())

let transport_arg =
  let doc = "Transport: tcp (HTTP/1.1 pool) or quic (HTTP/3 single connection)." in
  Arg.(value & opt (enum [ ("tcp", `Tcp); ("quic", `Quic) ]) `Tcp & info [ "transport" ] ~doc)

(* Resolves the policy name to the policy itself at parse time. *)
let policy_conv =
  let parse name =
    match List.assoc_opt name (Stob_core.Strategies.all_named ()) with
    | Some p -> Ok p
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown policy %s (expected one of: %s)" name
                (String.concat ", " policy_names)))
  in
  Arg.conv ~docv:"POLICY"
    (parse, fun fmt p -> Format.pp_print_string fmt p.Stob_core.Policy.name)

let policy_arg =
  let doc =
    Printf.sprintf "Server-side Stob policy: one of %s." (String.concat ", " policy_names)
  in
  Arg.(value & opt policy_conv Stob_core.Policy.unmodified & info [ "policy" ] ~docv:"POLICY" ~doc)

(* --- gen-dataset ------------------------------------------------------ *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let gen_dataset out samples seed policy jobs =
  (* The export appears atomically: traces and labels.csv are staged in a
     temp directory that is renamed into place only when complete, so a
     crash can never leave a half-written corpus under [out].  An existing
     non-empty target is refused up front rather than silently merged
     with a previous export. *)
  if Sys.file_exists out && ((not (Sys.is_directory out)) || Sys.readdir out <> [||]) then begin
    Printf.eprintf
      "stobctl gen-dataset: %s already exists and is not an empty directory; refusing to \
       overwrite a previous export — remove it or pick another --out\n"
      out;
    exit 1
  end;
  Printf.printf "generating %d samples/site for %d sites...\n%!" samples
    (List.length Stob_web.Sites.all);
  let dataset =
    with_jobs jobs (fun pool ->
        Stob_web.Dataset.generate ~samples_per_site:samples ~seed ~policy
          ~progress:(fun ~done_ ~total ->
            if done_ mod 50 = 0 then Printf.printf "  %d/%d visits\n%!" done_ total)
          ?pool ())
  in
  let clean = Stob_web.Dataset.sanitize dataset in
  let tmp = Printf.sprintf "%s.tmp.%d" out (Unix.getpid ()) in
  (try
     Unix.mkdir tmp 0o755;
     let labels = open_out (Filename.concat tmp "labels.csv") in
     Array.iteri
       (fun i s ->
         let path = Filename.concat tmp (Printf.sprintf "trace_%04d.csv" i) in
         Stob_net.Trace.save path s.Stob_web.Dataset.trace;
         Printf.fprintf labels "trace_%04d.csv,%d,%s\n" i s.Stob_web.Dataset.label
           s.Stob_web.Dataset.site)
       clean.Stob_web.Dataset.samples;
     close_out labels;
     Sys.rename tmp out
   with e ->
     rm_rf tmp;
     raise e);
  Printf.printf "wrote %d sanitized traces (+labels.csv) to %s/\n"
    (Array.length clean.Stob_web.Dataset.samples)
    out

let gen_dataset_cmd =
  let out =
    Arg.(value & opt string "dataset" & info [ "out" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  Cmd.v
    (cmd_info "gen-dataset" ~doc:"Generate and sanitize a page-load trace corpus")
    Term.(const gen_dataset $ out $ samples $ seed $ policy_arg $ jobs)

(* --- attack ----------------------------------------------------------- *)

let attack samples folds trees seed policy transport jobs =
  Printf.printf "corpus: %d samples/site, policy %s, transport %s\n%!" samples
    policy.Stob_core.Policy.name
    (match transport with `Tcp -> "tcp" | `Quic -> "quic");
  with_jobs jobs (fun pool ->
      let dataset =
        Stob_web.Dataset.sanitize
          (Stob_web.Dataset.generate ~samples_per_site:samples ~seed ~policy ~transport ?pool ())
      in
      let mean, std = Evalcommon.accuracy_cv ~folds ~trees ~seed ?pool dataset in
      Printf.printf "k-FP closed-world accuracy (%d-fold CV): %.3f +/- %.3f\n" folds mean std)

let attack_cmd =
  Cmd.v
    (cmd_info "attack" ~doc:"Run the k-FP closed-world attack against a (possibly defended) corpus")
    Term.(const attack $ samples $ folds $ trees $ seed $ policy_arg $ transport_arg $ jobs)

(* --- load ------------------------------------------------------------- *)

(* Unicode sparkline of per-bucket wire bytes for one direction. *)
let sparkline trace dir ~buckets =
  let module Trace = Stob_net.Trace in
  let glyphs = [| ' '; '.'; ':'; '-'; '='; '+'; '*'; '#' |] in
  let duration = Float.max 1e-9 (Trace.duration trace) in
  let acc = Array.make buckets 0.0 in
  Array.iter
    (fun e ->
      if e.Trace.dir = dir then begin
        let b = min (buckets - 1) (int_of_float (e.Trace.time /. duration *. float_of_int buckets)) in
        acc.(b) <- acc.(b) +. float_of_int e.Trace.size
      end)
    trace;
  let peak = Array.fold_left Float.max 1.0 acc in
  String.init buckets (fun i ->
      let level = int_of_float (acc.(i) /. peak *. 7.0) in
      glyphs.(max 0 (min 7 level)))

let load_one (site, profile) seed policy =
  let rng = Stob_util.Rng.create seed in
  let r = Stob_web.Browser.load ~policy ~rng profile in
  Printf.printf "site: %s  policy: %s\n" site policy.Stob_core.Policy.name;
  Printf.printf "completed: %b  load time: %.3f s  downloaded: %d B (plaintext)\n"
    r.Stob_web.Browser.completed r.Stob_web.Browser.load_time r.Stob_web.Browser.bytes_downloaded;
  Format.printf "trace: %a@." Stob_net.Trace.pp_summary r.Stob_web.Browser.trace;
  let trace = Stob_net.Trace.shift_to_zero r.Stob_web.Browser.trace in
  Printf.printf "  down |%s|\n" (sparkline trace Stob_net.Packet.Incoming ~buckets:60);
  Printf.printf "  up   |%s|\n" (sparkline trace Stob_net.Packet.Outgoing ~buckets:60)

let load_cmd =
  Cmd.v
    (cmd_info "load" ~doc:"Run one page load through the simulated stack and summarize its trace")
    Term.(const load_one $ site $ seed $ policy_arg)

(* --- policies --------------------------------------------------------- *)

let policies () =
  Printf.printf "built-in Stob policies:\n";
  List.iter
    (fun (name, p) -> Format.printf "  %-14s %a@." name Stob_core.Policy.pp p)
    (Stob_core.Strategies.all_named ())

let policies_cmd =
  Cmd.v (cmd_info "policies" ~doc:"List the built-in obfuscation policies")
    Term.(const policies $ const ())

(* --- paper artifacts ---------------------------------------------------- *)

(* One command per Stob_experiments.Catalog entry.  Its sizes become
   positive-int flags that default to the entry's full value, it takes
   --seed if seeded, and the crash-safe options when it keeps state;
   only stateful artifacts (sweeps, the population corpus) run in
   parallel, so only they take --jobs.  An entry with a [switch] also
   rides on its host's command as a flag ([dl --population]); each size
   flag there defaults to the value of whichever entry runs. *)
let experiment_cmd (e : Catalog.t) =
  let variants =
    List.filter (fun (v : Catalog.t) -> Option.map fst v.switch = Some e.name) Catalog.all
  in
  let entries = e :: variants in
  let switch_flag (v : Catalog.t) = snd (Option.get v.switch) in
  let sizes =
    List.sort_uniq
      (fun (a : Catalog.size) (b : Catalog.size) -> compare a.flag b.flag)
      (List.concat_map (fun (x : Catalog.t) -> x.sizes) entries)
  in
  let size_arg (s : Catalog.size) =
    let default (x : Catalog.t) =
      List.find_opt (fun (d : Catalog.size) -> d.flag = s.flag) x.sizes
      |> Option.map (fun (d : Catalog.size) ->
             if x == e then string_of_int d.full
             else Printf.sprintf "%d with --%s" d.full (switch_flag x))
    in
    let absent = String.concat ", " (List.filter_map default entries) in
    Arg.(
      value
      & opt (some (pos_int_conv ~docv:"N")) None
      & info [ s.flag ] ~docv:"N" ~doc:s.doc ~absent)
  in
  let sizes_t =
    List.fold_right
      (fun (s : Catalog.size) rest ->
        Term.(
          const (fun v rest -> Option.fold v ~none:rest ~some:(fun v -> (s.flag, v) :: rest))
          $ size_arg s $ rest))
      sizes (Term.const [])
  in
  let entry_t =
    List.fold_left
      (fun chosen (v : Catalog.t) ->
        Term.(
          const (fun on x -> if on then v else x)
          $ Arg.(value & flag & info [ switch_flag v ] ~doc:v.doc)
          $ chosen))
      (Term.const e) variants
  in
  let has state = List.exists (fun x -> Catalog.state x = state) entries in
  let sweep = has Catalog.Sweep in
  let stateful = sweep || has Catalog.Corpus in
  let when_ cond arg ~default = if cond then arg else Term.const default in
  let seeded = List.exists (fun (x : Catalog.t) -> x.seeded) entries in
  let run (x : Catalog.t) sizes seed jobs state_dir retries strict =
    let go pool = Catalog.run ?pool ~sizes ?seed ?state_dir ~retries ~strict x in
    if not (with_jobs jobs go) then exit 1
  in
  Cmd.v (cmd_info e.name ~doc:e.doc)
    Term.(
      const run $ entry_t $ sizes_t
      $ when_ seeded (const Option.some $ seed) ~default:None
      $ when_ stateful jobs ~default:1
      $ when_ stateful (if sweep then state_dir_arg else corpus_dir_arg) ~default:None
      $ when_ sweep retries_arg ~default:0
      $ when_ sweep strict_arg ~default:false)

(* Figures 1 and 2 together, one blank line apart. *)
let arch_cmd =
  let figure name = ignore (Catalog.run (Option.get (Catalog.find name))) in
  let arch () =
    figure "fig1";
    print_newline ();
    figure "fig2"
  in
  Cmd.v
    (cmd_info "arch" ~doc:"Render Figures 1 and 2 (stack model and Stob architecture)")
    Term.(const arch $ const ())

(* --- resume / status --------------------------------------------------- *)

(* [resume] rebuilds the interrupted sweep from its journaled manifest
   (Catalog.resume looks the experiment up and decodes the manifest with
   that experiment's own decoder) and re-runs it against the same store:
   finished cells replay from the cache, missing ones are computed, and
   the final artifact is bit-identical to an uninterrupted run.  The
   rebuilt run re-asserts its manifest, so any divergence (e.g. a corpus
   regenerated differently) fails loudly instead of mixing sweeps. *)
let resume state_dir jobs retries strict =
  match with_jobs jobs (fun pool -> Catalog.resume ?pool ~retries ~strict state_dir) with
  | true -> ()
  | false -> exit 1
  | exception (Failure msg | Journal.Corrupt msg) ->
      Printf.eprintf "stobctl resume: %s\n" msg;
      exit 1

let resume_cmd =
  let state_dir = required_state_dir ~doc:"State directory of the interrupted sweep." in
  Cmd.v
    (cmd_info "resume"
       ~doc:
         "Resume an interrupted sweep from its state directory, recomputing only the missing \
          cells (the merged artifact is bit-identical to an uninterrupted run)")
    Term.(const resume $ state_dir $ jobs $ retries_arg $ strict_arg)

let status state_dir =
  match Store.peek state_dir with
  | exception Journal.Corrupt msg ->
      Printf.eprintf
        "stobctl status: %s is not a stob sweep state directory (%s).\n\
         If it should be one, the journal was overwritten by something else; remove the \
         directory and re-run the sweep.\n"
        state_dir msg;
      exit 1
  | None, _ ->
      if not (Sys.file_exists state_dir) then
        Printf.eprintf
          "stobctl status: %s: no such directory (state directories are created by running a \
           sweep with --state-dir)\n"
          state_dir
      else
        Printf.eprintf "stobctl status: %s records no sweep (run one with --state-dir first)\n"
          state_dir;
      exit 1
  | Some m, entries ->
      Printf.printf "sweep: %s (%d cells expected)\n" m.Store.experiment m.Store.total;
      List.iter (fun (k, v) -> Printf.printf "  %-18s %s\n" k v) m.Store.fields;
      let done_ =
        List.length
          (List.filter (fun (_, _, s) -> match s with Store.Done _ -> true | _ -> false) entries)
      in
      let poisoned =
        List.filter_map
          (fun (_, label, s) ->
            match s with Store.Poisoned e -> Some (label, e) | Store.Done _ -> None)
          entries
      in
      Printf.printf "cells: %d done, %d poisoned, %d pending\n" done_ (List.length poisoned)
        (max 0 (m.Store.total - List.length entries));
      List.iter (fun (label, e) -> Printf.printf "  poisoned %s: %s\n" label e) poisoned;
      let s = Journal.verify (Store.journal_file state_dir) in
      Printf.printf "journal: %d frames, %d bytes%s\n" s.Journal.scrub_frames s.Journal.scrub_bytes
        (if s.Journal.torn_bytes > 0 then
           Printf.sprintf " (%d-byte torn tail — see stobctl scrub)" s.Journal.torn_bytes
         else "")

let status_cmd =
  let state_dir = required_state_dir ~doc:"State directory to inspect." in
  Cmd.v
    (cmd_info "status"
       ~doc:
         "Report a sweep state directory: its manifest, done/pending/poisoned cell counts, and \
          journal size/frame counts.  Read-only — safe to run while the sweep is still \
          executing.")
    Term.(const status $ state_dir)

(* --- scrub / compact --------------------------------------------------- *)

let scrub state_dir repair =
  let file = Store.journal_file state_dir in
  match Journal.verify file with
  | exception Journal.Corrupt msg ->
      Printf.eprintf "stobctl scrub: %s is not a stob journal (%s)\n" file msg;
      exit 1
  | { Journal.exists = false; _ } ->
      Printf.eprintf "stobctl scrub: %s: no journal (is %s a sweep state directory?)\n" file
        state_dir;
      exit 1
  | s ->
      Printf.printf "journal: %s\n" file;
      Printf.printf "frames:  %d valid (%d of %d bytes)\n" s.Journal.scrub_frames
        s.Journal.valid_bytes s.Journal.scrub_bytes;
      if s.Journal.torn_bytes = 0 then Printf.printf "tail:    clean\n"
      else begin
        Printf.printf "tail:    %d damaged bytes (%s)\n" s.Journal.torn_bytes
          (if s.Journal.crc_mismatch then "CRC mismatch: bytes flipped in place"
           else "write cut short by a crash");
        if repair then begin
          (* Store.open_ applies the recovery rule (truncate the torn
             tail, resume at the cut) and sweeps orphan tmps; we only
             borrow it for its side effects. *)
          let store = Store.open_ state_dir in
          let orphans = Store.orphans_swept store in
          Store.close store;
          let s' = Journal.verify file in
          Printf.printf "repair:  truncated to %d valid frames (%d bytes); %d orphan tmp file%s \
                         swept\n"
            s'.Journal.scrub_frames s'.Journal.valid_bytes orphans
            (if orphans = 1 then "" else "s")
        end
        else begin
          Printf.printf "run with --repair to truncate the damaged tail and resume from the \
                         valid prefix\n";
          exit 1
        end
      end

let scrub_cmd =
  let state_dir = required_state_dir ~doc:"State directory whose journal to scrub." in
  let repair =
    Arg.(
      value & flag
      & info [ "repair" ]
          ~doc:
            "Truncate a damaged tail back to the last valid frame and sweep orphan $(b,*.tmp) \
             files, instead of just reporting.  Identical to what the next sweep's open would \
             do; records past the cut are recomputed on resume.")
  in
  Cmd.v
    (cmd_info "scrub"
       ~doc:
         "CRC-walk a sweep journal and report its health: valid frames, total bytes, and any \
          damaged tail (torn write vs in-place corruption).  Read-only without $(b,--repair); \
          exits non-zero if damage is found and left in place.")
    Term.(const scrub $ state_dir $ repair)

let compact state_dir =
  if not (Sys.file_exists (Store.journal_file state_dir)) then begin
    Printf.eprintf "stobctl compact: %s: no journal (is it a sweep state directory?)\n" state_dir;
    exit 1
  end;
  match Store.compact state_dir with
  | exception Journal.Corrupt msg ->
      Printf.eprintf "stobctl compact: %s\n" msg;
      exit 1
  | exception Failure msg ->
      Printf.eprintf "stobctl compact: %s\n" msg;
      exit 1
  | c ->
      Printf.printf "compacted %s: %d -> %d frames, %d -> %d bytes (replay digest agrees)\n"
        state_dir c.Store.frames_before c.Store.frames_after c.Store.bytes_before
        c.Store.bytes_after

let compact_cmd =
  let state_dir = required_state_dir ~doc:"State directory to compact." in
  Cmd.v
    (cmd_info "compact"
       ~doc:
         "Atomically rewrite a sweep journal down to the manifest plus the latest record per \
          cell (tmp + verify + rename).  The compacted journal is proven to replay to exactly \
          the pre-compaction state before it replaces the original; resume behaviour is \
          unchanged, only superseded frames are dropped.")
    Term.(const compact $ state_dir)

(* --- netem ------------------------------------------------------------ *)

let netem loss reorder dup jitter netem_seed ccas rate delay bytes jobs =
  let module NE = Stob_tcp.Netem_eval in
  let cells = List.map (fun cca -> { NE.cca; loss; reorder }) ccas in
  Printf.printf
    "netem: loss=%g reorder=%b dup=%g jitter=%g s  path %.0f Mb/s / %.0f ms  response %d B  seed \
     %d\n\n"
    loss reorder dup jitter (rate /. 1e6) (delay *. 1e3) bytes netem_seed;
  let results =
    with_jobs jobs (fun pool ->
        let rng = Stob_util.Rng.create netem_seed in
        let seeded = List.map (fun c -> (c, Stob_util.Rng.int rng max_int)) cells in
        let run (c, s) =
          NE.run_cell ~rate_bps:rate ~delay ~response:bytes ~duplicate:dup ~jitter ~seed:s c
        in
        match pool with
        | None -> List.map run seeded
        | Some pool -> Stob_par.Pool.map_list pool run seeded)
  in
  List.iter (fun r -> Format.printf "%a@." NE.pp_result r) results;
  let bad = List.filter (fun r -> not (NE.converged r)) results in
  if bad <> [] then begin
    Printf.printf "\n%d cell(s) failed to converge\n" (List.length bad);
    exit 1
  end;
  Printf.printf "\nall %d cells converged\n" (List.length results)

(* "all" or one validated CCA name, resolved to the list of cells to run. *)
let cca_conv =
  let parse = function
    | "all" -> Ok [ "reno"; "cubic"; "bbr" ]
    | c -> (
        match Stob_tcp.Netem_eval.cc_of_name c with
        | (_ : Stob_tcp.Cc.factory) -> Ok [ c ]
        | exception Invalid_argument _ ->
            Error (`Msg (Printf.sprintf "unknown CCA %s (expected reno, cubic, bbr or all)" c)))
  in
  let print fmt = function
    | [ c ] -> Format.pp_print_string fmt c
    | _ -> Format.pp_print_string fmt "all"
  in
  Arg.conv ~docv:"CCA" (parse, print)

let netem_cmd =
  let loss =
    Arg.(value & opt prob_conv 0.01
         & info [ "loss" ] ~docv:"P" ~doc:"I.i.d. per-packet loss probability, both directions.")
  in
  let reorder =
    Arg.(value & flag & info [ "reorder" ] ~doc:"Also hold ~5% of packets back a few slots.")
  in
  let dup =
    Arg.(value & opt prob_conv 0.0 & info [ "dup" ] ~docv:"P" ~doc:"Duplication probability.")
  in
  let jitter =
    Arg.(value & opt (nonneg_float_conv ~docv:"SEC") 0.0
         & info [ "jitter" ] ~docv:"SEC" ~doc:"Uniform extra delay bound.")
  in
  let netem_seed =
    Arg.(value & opt int 4242
         & info [ "netem-seed" ] ~docv:"SEED" ~doc:"Master seed for the impairment draws.")
  in
  let cca =
    Arg.(value & opt cca_conv [ "reno"; "cubic"; "bbr" ]
         & info [ "cca" ] ~docv:"CCA" ~doc:"Congestion control: reno, cubic, bbr or all.")
  in
  let rate =
    Arg.(value & opt (pos_float_conv ~docv:"BPS") 20e6
         & info [ "rate" ] ~docv:"BPS" ~doc:"Bottleneck rate, bits/s.")
  in
  let delay =
    Arg.(value & opt (pos_float_conv ~docv:"SEC") 0.015
         & info [ "delay" ] ~docv:"SEC" ~doc:"One-way propagation delay.")
  in
  let bytes =
    Arg.(value & opt (pos_int_conv ~docv:"N") 150_000
         & info [ "bytes" ] ~docv:"N" ~doc:"Response size to transfer.")
  in
  Cmd.v
    (cmd_info "netem"
       ~doc:
         "Drive one request/response/close connection per CCA through seeded netem-style \
          impairment (loss, reordering, duplication, jitter) and report recovery counters")
    Term.(
      const netem $ loss $ reorder $ dup $ jitter $ netem_seed $ cca $ rate $ delay $ bytes $ jobs)

(* --- chaos ------------------------------------------------------------ *)

let chaos smoke chaos_seed shrink jobs =
  let module C = Stob_check.Chaos in
  let scenarios = if smoke then C.smoke_scenarios () else C.default_scenarios () in
  let reports = with_jobs jobs (fun pool -> C.run_sweep ?pool ~seed:chaos_seed scenarios) in
  C.print_sweep reports;
  (* Same per-cell gates as `bench/main.exe chaos` (Stob_check.Chaos.gate_failures). *)
  let gate r = C.gate_failures r = [] in
  let failing = List.filter (fun r -> not (gate r)) reports in
  match failing with
  | [] ->
      Printf.printf "\nchaos: all gates passed (%d cells, seed %d)\n" (List.length reports)
        chaos_seed
  | fs ->
      List.iter
        (fun (r : C.report) ->
          Printf.printf "\nchaos FAILURE: %s (cell seed %d)\n" (C.scenario_name r.C.scenario)
            r.C.seed;
          if shrink then
            match C.shrink ~failed:(fun r' -> not (gate r')) ~seed:r.C.seed r.C.scenario with
            | None ->
                Printf.printf "  not reproducible from the fault plan alone (full replay passes)\n"
            | Some (k, prefix, _) ->
                Printf.printf "  minimal failing fault prefix: %d event(s)\n" k;
                List.iter (fun ev -> Format.printf "    %a@." Stob_sim.Fault.pp_event ev) prefix)
        fs;
      exit 1

let chaos_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ] ~doc:"Run the bounded smoke sweep instead of the full battery.")
  in
  let chaos_seed =
    Arg.(value & opt int 1337
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Master seed for the sweep; per-cell seeds are pre-split from it, so reports \
                   are identical at every $(b,--jobs) level.")
  in
  let shrink =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:"On failure, shrink each failing cell to the minimal prefix of its \
                   time-sorted fault plan that still fails, and print it.")
  in
  Cmd.v
    (cmd_info "chaos"
       ~doc:
         "Run the chaos battery: seeded fault injection against monitored, \
          degradation-enabled page loads.  Gates: every cell survives (completes without \
          crash or livelock) and no-fault cells report zero invariant violations.")
    Term.(const chaos $ smoke $ chaos_seed $ shrink $ jobs)

(* --- population ------------------------------------------------------- *)

let population users shards background zipf sessions visits cap mode pop_seed dir jobs =
  let config =
    {
      Population.default_config with
      Population.users;
      shards;
      background_sites = background;
      zipf_exponent = zipf;
      mean_sessions = sessions;
      mean_session_visits = visits;
      max_trace_events = cap;
      mode;
      seed = pop_seed;
    }
  in
  let summary = with_jobs jobs (fun pool -> Population.generate ?pool config ~state_dir:dir) in
  Format.printf "%a" Population.pp_summary summary

let population_cmd =
  let mode_conv =
    let parse = function
      | "synthetic" -> Ok Population.Synthetic
      | "browser" -> Ok Population.Browser
      | s -> Error (`Msg (Printf.sprintf "unknown mode %s (expected synthetic or browser)" s))
    in
    let print fmt = function
      | Population.Synthetic -> Format.pp_print_string fmt "synthetic"
      | Population.Browser -> Format.pp_print_string fmt "browser"
    in
    Arg.conv ~docv:"MODE" (parse, print)
  in
  let users =
    Arg.(value & opt (nonneg_int_conv ~docv:"N") Population.default_config.Population.users
         & info [ "users" ] ~docv:"N" ~doc:"Population size.")
  in
  let shards =
    Arg.(value & opt (pos_int_conv ~docv:"N") Population.default_config.Population.shards
         & info [ "shards" ] ~docv:"N"
             ~doc:"Fixed shard count (independent of $(b,--jobs); the corpus digest depends \
                   only on the config and seed).")
  in
  let background =
    Arg.(value
         & opt (nonneg_int_conv ~docv:"N")
             Population.default_config.Population.background_sites
         & info [ "background" ] ~docv:"N"
             ~doc:"Synthetic background sites appended after the nine monitored ones.")
  in
  let zipf =
    Arg.(value
         & opt (pos_float_conv ~docv:"S") Population.default_config.Population.zipf_exponent
         & info [ "zipf" ] ~docv:"S" ~doc:"Site-popularity zipf exponent.")
  in
  let sessions =
    Arg.(value
         & opt (pos_float_conv ~docv:"M") Population.default_config.Population.mean_sessions
         & info [ "sessions" ] ~docv:"M" ~doc:"Poisson mean sessions per user per day.")
  in
  let visits =
    Arg.(value
         & opt (pos_float_conv ~docv:"M")
             Population.default_config.Population.mean_session_visits
         & info [ "visits" ] ~docv:"M" ~doc:"Mean page visits per session (>= 1).")
  in
  let cap =
    Arg.(value
         & opt (pos_int_conv ~docv:"N") Population.default_config.Population.max_trace_events
         & info [ "events-cap" ] ~docv:"N" ~doc:"Per-trace event cap (capture truncation).")
  in
  let mode =
    Arg.(value & opt mode_conv Population.Synthetic
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Trace synthesis: $(b,synthetic) (fast statistical model) or $(b,browser) \
                   (full page-load simulation).")
  in
  let dir =
    Arg.(required & opt (some string) None
         & info [ "state-dir" ] ~docv:"DIR"
             ~doc:"Corpus directory: one journal file per shard plus the resume store.  \
                   Re-running the same config resumes, skipping finished shards.")
  in
  Cmd.v
    (cmd_info "population"
       ~doc:
         "Generate a population-scale packed-trace corpus: zipf site popularity, per-user \
          diurnal sessions, one journal per shard, O(shard) resident memory")
    Term.(
      const population $ users $ shards $ background $ zipf $ sessions $ visits $ cap $ mode
      $ seed $ dir $ jobs)

(* --- soak ------------------------------------------------------------- *)

let soak smoke transport users shards fault_period horizon soak_seed state_dir retries jobs =
  let module Soak = Stob_check.Soak in
  let base = if smoke then Soak.smoke_config else Soak.default_config in
  let population =
    {
      base.Soak.population with
      Population.users = Option.value users ~default:base.Soak.population.Population.users;
      shards = Option.value shards ~default:base.Soak.population.Population.shards;
      seed = soak_seed;
    }
  in
  let config = { Soak.population; flow_horizon = horizon; fault_period; transport } in
  let summary =
    with_jobs jobs (fun pool ->
        Soak.run ?pool ?state_dir ~retries
          ~on_shard:(fun r ->
            Printf.eprintf "soak: shard %02d%s %d/%d flows, %d probes, %d violations\n%!"
              r.Soak.shard
              (if r.Soak.faulted then " (faulted)" else "")
              r.Soak.completed r.Soak.flows r.Soak.persist_probes r.Soak.total_violations)
          config)
  in
  Format.printf "%a@." Soak.pp_summary summary;
  match Soak.gate_failures ~jobs config summary with
  | [] -> ()
  | failures ->
      List.iter (Printf.eprintf "soak FAILURE: %s\n") failures;
      exit 1

let soak_cmd =
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Run the CI-sized soak (a few thousand flows) instead of the full >= 1M-flow \
                   battery.")
  in
  let users =
    Arg.(value & opt (some (nonneg_int_conv ~docv:"N")) None
         & info [ "users" ] ~docv:"N"
             ~doc:"Override the population size (expected flows = users x sessions x visits).")
  in
  let shards =
    Arg.(value & opt (some (pos_int_conv ~docv:"N")) None
         & info [ "shards" ] ~docv:"N"
             ~doc:"Fixed shard count (independent of $(b,--jobs); reports are jobs-invariant).")
  in
  let transport_conv =
    Arg.conv
      ( (fun s ->
          try Ok (Stob_check.Soak.transport_of_name (String.lowercase_ascii s))
          with Invalid_argument _ ->
            Error (`Msg (Printf.sprintf "unknown transport %S (tcp|quic|mixed)" s))),
        fun fmt t -> Format.pp_print_string fmt (Stob_check.Soak.transport_name t) )
  in
  let transport =
    Arg.(value & opt transport_conv `Tcp
         & info [ "transport" ] ~docv:"TRANSPORT"
             ~doc:"Flow population: $(b,tcp), $(b,quic), or $(b,mixed) (50/50 split drawn \
                   per flow).")
  in
  let fault_period =
    Arg.(value & opt (nonneg_int_conv ~docv:"N") 4
         & info [ "fault-period" ] ~docv:"N"
             ~doc:"Arm the chaos dimension (TCP pacer-clock jumps, QUIC datagram blackholes) \
                   on every $(docv)th shard; 0 disables faults.")
  in
  let horizon =
    Arg.(value & opt (pos_float_conv ~docv:"SECONDS") 120.0
         & info [ "flow-horizon" ] ~docv:"SECONDS"
             ~doc:"Per-flow lifetime before the reaper harvests it.")
  in
  let soak_seed =
    Arg.(value & opt int 271
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Population seed; per-flow seeds are pre-split from the visit plan, so \
                   reports are identical at every $(b,--jobs) level.")
  in
  Cmd.v
    (cmd_info "soak"
       ~doc:
         "Run the transport endurance soak: population-scale request/response flows — TCP \
          (slow readers, zero windows, refused SACK/wscale, reduced MSS, lossy links, chaos \
          pacer faults), QUIC (idle-timeout closes, anti-amplification, PTO recovery, \
          datagram-blackhole faults), or a mixed population — with every endpoint under the \
          invariant monitor.  Gates (shared with $(b,bench/main.exe soak)): every flow \
          completes, fault-free shards are violation-free, the mix exercises each transport's \
          machinery, armed faults fire, live-heap growth stays bounded, and the unmodified \
          full config drives >= 1M flows.  With $(b,--state-dir) the soak is crash-safe and \
          resumable.")
    Term.(
      const soak $ smoke $ transport $ users $ shards $ fault_period $ horizon $ soak_seed
      $ state_dir_arg $ retries_arg $ jobs)

let main_cmd =
  let doc = "stack-level traffic obfuscation (Stob) reproduction toolkit" in
  Cmd.group (Cmd.info "stobctl" ~version:"1.0.0" ~doc ~exits)
    ([ gen_dataset_cmd; attack_cmd; load_cmd; policies_cmd; arch_cmd; resume_cmd; status_cmd;
       scrub_cmd; compact_cmd; netem_cmd; chaos_cmd; population_cmd; soak_cmd ]
    @ List.map experiment_cmd Catalog.all)

let () = exit (Cmd.eval main_cmd)

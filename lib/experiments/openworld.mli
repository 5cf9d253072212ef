(** Extension experiment: open-world evaluation.

    The paper's Table 2 uses the closed world ("the most favorable
    conditions for the attacker ... an upper bound on attack success").
    k-FP's native setting is the open world: the censor monitors a handful
    of sites while clients may visit anything.  This harness evaluates that
    setting — the regime an actual censorship deployment faces — against
    procedurally generated background sites the classifier never saw, with
    and without a Stob policy.

    Attack rule (Hayes & Danezis): a visit is attributed to monitored site
    s only when all k nearest leaf-fingerprint neighbours agree on s;
    otherwise it is called unmonitored. *)

type metrics = {
  tpr : float;  (** Monitored visits attributed to their true site. *)
  wrong_site : float;  (** Monitored visits attributed to another monitored site. *)
  fpr : float;  (** Background visits attributed to any monitored site. *)
}

type result = { k : int; undefended : metrics; defended : metrics }

val run :
  ?samples_per_site:int ->
  ?background_train_sites:int ->
  ?background_test_sites:int ->
  ?k:int ->
  ?trees:int ->
  ?seed:int ->
  ?quiet:bool ->
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?inject:(label:string -> attempt:int -> unit) ->
  ?store:Stob_store.Store.t ->
  ?on_report:(Stob_store.Supervisor.report -> unit) ->
  unit ->
  result
(** Defaults: 30 visits per monitored site (70/30 train/test split), 30
    training background sites (2 visits each), 30 {e unseen} test background
    sites (1 visit each), k = 3, 100 trees.  [defended] regenerates both
    corpora with the Stob combined (split+delay) policy in-stack.

    The two arms run as supervised checkpoint cells: [?pool] computes them
    concurrently, [?store] journals each arm for crash-safe resume, and a
    poisoned arm's metrics render as [nan].  See {!Stob_store.Supervisor}
    for [?retries]/[?inject]/[?on_report]. *)

val resume : Stob_store.Store.manifest -> result Stob_store.Supervisor.sweep
(** {!run} with the parameters a journaled run recorded in its manifest:
    the decoder [stobctl resume] uses.  Raises [Failure] on a missing field. *)

val print : result -> unit

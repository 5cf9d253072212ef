(** Supervised cell execution: run a sweep's cells through a
    {!Stob_par.Pool}, serving finished cells from the {!Store} cache and
    journaling each newly computed one the moment it completes — in
    deterministic cell-index order, so the journal bytes (and of course
    the results) are identical at every [--jobs] level.

    {b Retries and poisoning.}  A cell whose [run] raises — including
    [Stob_sim.Fault.Injected] under chaos and the engine's
    [Stob_sim.Engine.Livelock] virtual-time budget — is retried up to
    [retries] times, each attempt tagged with a fresh-but-deterministic
    [~attempt] index the cell may fold into its own derived seeds.  A cell
    that exhausts its attempts is recorded as {e poisoned} with the final
    exception; the rest of the sweep completes and the report lists the
    failures instead of the whole run aborting.

    {b Durability degradation.}  The store applies the same
    completion-over-durability policy to itself: if journaling a finished
    cell fails past the bounded retry budget (persistent ENOSPC), the
    supervisor keeps running on the store's in-memory index and the
    condition is surfaced through {!Store.report} /
    [Monitor.watch_store]'s [store-durability-degraded] edge — drivers
    print the store report after the sweep instead of losing the run. *)

type 'a cell = {
  label : string;  (** Human-readable name, for reports and the journal. *)
  config : (string * string) list;  (** Digested via {!Cell.digest}. *)
  seed : int;
  run : attempt:int -> 'a;
      (** Must be deterministic in [(config, seed, attempt)] and must not
          depend on scheduling — the same pre-split-RNG rule as
          {!Stob_par.Pool}. *)
}

type 'a outcome = {
  label : string;
  key : string;  (** The cell digest. *)
  result : ('a, string) result;  (** [Error] carries the poisoning exception text. *)
  cached : bool;  (** Served from the journal rather than computed. *)
  attempts : int;  (** 0 when cached. *)
}

type report = {
  total : int;
  computed : int;
  cached : int;
  retried : int;  (** Cells that needed more than one attempt. *)
  poisoned : (string * string) list;  (** [(label, exception text)], cell order. *)
}

type 'r sweep =
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?inject:(label:string -> attempt:int -> unit) ->
  ?store:Store.t ->
  ?on_report:(report -> unit) ->
  unit ->
  'r
(** The supervised tail every journaled experiment's [run] ends with:
    [?pool]/[?retries]/[?inject] as for {!run}, the [?store] to journal
    into, and [?on_report] receiving the sweep's {!report}. *)

val run :
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?inject:(label:string -> attempt:int -> unit) ->
  ?store:Store.t ->
  experiment:string ->
  encode:('a -> string) ->
  decode:(string -> 'a) ->
  'a cell list ->
  'a outcome list
(** Outcomes in cell order.  [retries] defaults to 0 (one attempt).
    [inject] runs before every attempt (the chaos hook: raise to fault the
    attempt); it must be deterministic in [(label, attempt)].  With a
    [store], the manifest must already be set by the caller; cached cells
    decode from their journal payload ([Failure] with a wipe-the-state-dir
    hint if the payload does not decode).  Raises [Invalid_argument] on
    negative [retries] or on two cells sharing a digest. *)

val report : 'a outcome list -> report

val pp_report : Format.formatter -> report -> unit
(** One line: totals plus one indented line per poisoned cell. *)

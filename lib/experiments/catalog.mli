(** The paper artifacts, defined once.

    Every table, figure and extension experiment is one entry: its name,
    the title [bench/main.exe] prints above it, a one-line doc, its size
    parameters with their full and quick values, and how to print it.
    [bench/main.exe] ([X], [X-quick], [all], [quick]) and [stobctl] (one
    command per entry, and [resume]) derive their dispatch from this table.
    Building the table does no work: entries run only through {!run}. *)

type size = {
  flag : string;  (** [stobctl] flag name, without the dashes. *)
  doc : string;
  full : int;  (** Paper-scale value: [bench X] and [stobctl]'s default. *)
  quick : int;  (** Reduced value: [bench X-quick]. *)
}

type state =
  | Stateless  (** [--state-dir] does not apply. *)
  | Sweep  (** Journals its cells under [--state-dir]; {!resume} can rebuild it. *)
  | Corpus
      (** Generates (or resumes) its corpus under [--state-dir]; without
          one, in a temporary directory removed afterwards. *)

type action

type t = {
  name : string;  (** Also a journaled sweep's manifest experiment. *)
  title : string;
  doc : string;
  sizes : size list;
  seeded : bool;  (** Takes [--seed]. *)
  switch : (string * string) option;
      (** [Some (host, flag)]: [stobctl host --flag] runs this entry too. *)
  action : action;
}

val all : t list
(** Every artifact, in the order [bench/main.exe all] runs them. *)

val find : string -> t option
val state : t -> state

val run :
  ?pool:Stob_par.Pool.t ->
  ?quick:bool ->
  ?sizes:(string * int) list ->
  ?seed:int ->
  ?state_dir:string ->
  ?retries:int ->
  ?strict:bool ->
  ?inject:(label:string -> attempt:int -> unit) ->
  ?on_report:(Stob_store.Supervisor.report -> unit) ->
  t ->
  bool
(** Print the artifact (without its title).  Each size is its [?sizes]
    override, else its [quick] or [full] value; the seed defaults to 42.
    A {!Sweep} journals into [?state_dir] (see {!Stob_store.Supervisor}
    for [?retries]/[?inject]) and prints its tally, and a degraded store's
    report, to stderr.  Returns [false] when [?strict] is set and a cell
    was poisoned. *)

val resume :
  ?pool:Stob_par.Pool.t ->
  ?retries:int ->
  ?strict:bool ->
  ?inject:(label:string -> attempt:int -> unit) ->
  ?on_report:(Stob_store.Supervisor.report -> unit) ->
  string ->
  bool
(** Resume the sweep journaled in a state directory: look the manifest's
    experiment up and rerun it from the manifest's fields, serving finished
    cells from the journal.  Raises [Failure] when the directory is
    missing, records no sweep or no journaled entry, or does not match the
    rebuilt run. *)

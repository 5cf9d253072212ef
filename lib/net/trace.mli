(** Wire traces: what the eavesdropper records.

    A trace is the time-ordered sequence of (timestamp, direction, wire size)
    triples for one page load, exactly the metadata the paper's tcpdump
    collection extracts.  Traces are the interchange format between the
    workload generator, the defenses (which transform them, Section 3) and
    the k-FP attack (which featurizes them). *)

type event = { time : float; dir : Packet.direction; size : int }

type t = event array
(** Invariant for well-formed traces: timestamps are non-decreasing.  Use
    {!sort} after a transformation that may reorder events. *)

val empty : t
val length : t -> int
val is_sorted : t -> bool
(** Timestamps non-decreasing under [Float.compare], the order {!sort}
    produces (a NaN time sorts first). *)

val sort : t -> t
(** Stable sort by timestamp under [Float.compare] (preserves relative order
    of equal times).  Always a fresh array; sorted input is only copied. *)

val prefix : t -> int -> t
(** First [n] events (all of them if the trace is shorter). *)

val duration : t -> float
(** Last timestamp minus first; [0.] for traces shorter than 2. *)

val count : ?dir:Packet.direction -> t -> int
(** Number of events, optionally restricted to one direction. *)

val bytes : ?dir:Packet.direction -> t -> int
(** Total wire bytes, optionally restricted to one direction. *)

val times : ?dir:Packet.direction -> t -> float array
val sizes : ?dir:Packet.direction -> t -> float array

val interarrivals : ?dir:Packet.direction -> t -> float array
(** Gaps between consecutive selected events; empty for fewer than 2. *)

val signed_sizes : t -> float array
(** Size with direction sign (+out / -in), the WF-literature encoding. *)

val shift_to_zero : t -> t
(** Rebase timestamps so the first event is at time 0. *)

val concat_sorted : t list -> t
(** Merge several traces into one time-ordered trace (e.g., the per-
    connection captures of one page load). *)

val to_csv : t -> string
(** "time,dir,size" lines; dir is [+1]/[-1]. *)

val of_csv : string -> t
(** Inverse of {!to_csv}.  Raises [Failure] on malformed input. *)

val save : string -> t -> unit
val load : string -> t

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: counts, bytes and duration per direction. *)

(** Compact packed traces: bigarray-backed (time, direction, size) lanes.

    The storage form of a {!Trace.t}: 12 bytes/event instead of a boxed
    record per event, with {!prefix} as a zero-copy view and a raw binary
    codec for journal payloads.  Built either from an existing {!Trace.t}
    or streamed through an {!Arena}.  Everything that computes on a trace
    (defenses, featurizers, encoders) takes a {!Trace.t}; convert with
    {!to_trace}.

    Values are immutable by convention; views share storage. *)

type t

val empty : t
val length : t -> int

val of_trace : Trace.t -> t
(** Raises [Invalid_argument] if an event's size is outside
    [[0, {!Arena.max_size}]]. *)

val to_trace : t -> Trace.t
val of_arena : Arena.t -> t

val prefix : t -> int -> t
(** First [n] events — a zero-copy view. *)

val to_bytes : t -> string
(** Raw binary framing (magic, u32 count, float64 times, int32 meta) for
    journal payloads; ~2x smaller than CSV and bit-exact. *)

val of_bytes : string -> t
(** Inverse of {!to_bytes}.  Raises [Failure] on framing errors. *)

(** Min-heap priority queue keyed by [(time, sequence)] — the seed
    implementation, kept verbatim as the {e differential oracle} for
    {!Timing_wheel}.

    The sequence number breaks ties so that events scheduled for the same
    instant fire in insertion order — a property the TCP model relies on
    (e.g., an ACK processed before the timer armed after it).  The engine
    runs on the timing wheel; this module exists only so the [sim.wheel]
    battery and the [simperf] bench can compare the wheel's pop sequence
    and throughput against the original heap's. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** Insert an element with priority [time]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest element, or [None] when empty. *)

val peek : 'a t -> (float * 'a) option
(** Earliest element without removing it. *)

val size : 'a t -> int
val is_empty : 'a t -> bool

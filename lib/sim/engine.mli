(** The discrete-event simulation engine.

    A simulation is a set of callbacks scheduled on a virtual clock.  The
    engine pops the earliest event, advances the clock to its timestamp and
    runs its callback, which may schedule further events.  All simulated
    subsystems (links, TCP timers, the CPU model, page-load drivers) share
    one engine, so cross-subsystem causality is exact. *)

type t

type event_id
(** Handle for cancellation (e.g., a retransmission timer that an ACK
    disarms). *)

exception Livelock of { time : float; events : int }
(** Raised by {!step}/{!run} when more than the same-instant budget of
    consecutive events execute without the clock advancing — the signature
    of a callback rescheduling itself with zero delay.  Without the budget
    such a bug hangs the process; with it, the hang becomes a structured,
    catchable failure (the chaos monitor reports it as a violation). *)

val create : unit -> t
(** A fresh engine at time 0 whose events sit in a {!Timing_wheel}. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> event_id
(** [schedule t ~delay f] runs [f] at [now t +. delay].  A negative delay is
    clamped to zero (fires "immediately", after already-queued events for the
    current instant). *)

val schedule_at : t -> time:float -> (unit -> unit) -> event_id
(** Absolute-time variant.  Times before [now] are clamped to [now]. *)

val cancel : t -> event_id -> unit
(** Disarm an event; cancelling an already-fired or cancelled event is a
    no-op. *)

val run : ?until:float -> t -> unit
(** Drain the event queue.  With [~until], stops once the next event lies
    strictly beyond [until] and sets the clock to [until]. *)

val step : t -> bool
(** Run exactly one event; [false] when the queue was empty. *)

val pending : t -> int
(** Number of scheduled (non-cancelled) events. *)

val events_processed : t -> int
(** Total callbacks executed so far (for engine-level sanity checks). *)

(** {1 Robustness instrumentation} *)

val set_same_instant_budget : t -> int -> unit
(** Maximum number of {e consecutive} events the engine will execute at one
    virtual instant before raising {!Livelock}.  The default
    ({!default_same_instant_budget}) is far above anything a legitimate
    workload produces; tests lower it to catch zero-delay self-rescheduling
    quickly.  Raises [Invalid_argument] on a non-positive budget. *)

val same_instant_budget : t -> int

val default_same_instant_budget : int
(** 1_000_000. *)

val set_probe : t -> (now:float -> unit) -> unit
(** [set_probe t f] installs an observe-only probe called after every
    executed event with the event's timestamp.  One probe at a time; the
    invariant monitor ({!Stob_check}) chains its checks through this.  The
    probe must not schedule or cancel events. *)

val clear_probe : t -> unit

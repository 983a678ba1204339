(** Execution budgets: chase-step caps, ground-instantiation caps
    and wall-clock deadlines.

    A {!limits} value is a declarative description (what the CLI
    flags produce); {!start} arms it into a mutable meter that the
    engines charge as they work. Once any dimension trips, the meter
    stays tripped — engines observe this and return a tagged
    {e partial} result instead of spinning. All charge operations
    are O(1); a meter with no deadline never reads the clock. *)

type limits = {
  max_steps : int option;  (** chase steps / frontier pulls *)
  max_instantiations : int option;  (** ground steps |Γ| *)
  deadline_ms : float option;  (** monotonic-clock, relative to {!start} *)
}

val unlimited : limits

val limits :
  ?max_steps:int ->
  ?max_instantiations:int ->
  ?deadline_ms:float ->
  unit ->
  limits
(** Raises [Invalid_argument] on a negative cap. *)

val is_unlimited : limits -> bool

val relax : ?factor:int -> limits -> limits
(** Multiply every set cap by [factor] (default 4) — the bounded
    retry policy for transient exhaustion. Saturates at [max_int]. *)

type t
(** An armed meter. Meters are plain mutable state, {e not}
    domain-safe: arm one per unit of work, on the domain doing that
    work, and never share it. The {!Framework.Cleaner} honours this
    by calling {!start} per entity {e inside} the worker — the
    [limits] value (immutable) is what crosses domains. *)

val start : ?clock:(unit -> float) -> limits -> t
(** Arm the limits. The deadline is measured against the
    {e monotonic} clock ({!Util.Timing.mono_ms}), so wall-clock
    adjustments (NTP steps) in a long-lived process can neither
    spuriously trip nor silently extend it. [clock] overrides the
    source {e for tests only} — it must be non-decreasing. *)

val with_max_steps : t -> int -> t
(** A fresh meter with its own step count capped at [n], sharing the
    original's clock, start time and deadline — a sub-budget for one
    phase that must still stop at the caller's deadline. *)

val step : t -> Error.trip option
(** Charge one unit of work; [Some trip] once exhausted (sticky). *)

val charge_instantiations : t -> int -> Error.trip option
(** Charge [n] ground-step instantiations at once. *)

val check : t -> Error.trip option
(** Deadline / sticky-trip check without charging work. *)

val tripped : t -> Error.trip option
val steps_used : t -> int
val limits_of : t -> limits
val elapsed_ms : t -> float

val to_error : ?detail:string -> t -> Error.t
(** The {!Error.Budget_exhausted} report for a tripped meter. *)

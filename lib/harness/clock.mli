(** Monotonic wall-clock measurement. *)

val now_ns : unit -> int64

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f] once, returning its result and elapsed seconds. *)

val best_of : ?repeats:int -> (unit -> 'a) -> 'a * float
(** Run [f] [repeats] times (default 3) and report the fastest wall-clock
    run — benchmark convention for noisy environments. The result is the
    last run's. *)

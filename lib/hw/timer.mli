(** Measurement helpers for real (host-CPU) execution, on one clock.

    Every timing in the library reads the monotonic clock
    ([CLOCK_MONOTONIC], through [bechamel.monotonic_clock]): elapsed real
    time that never steps backwards when the system time is adjusted. It is
    the clock the repository benchmark reads too, so library spans and
    benchmark spans are directly comparable. Elapsed time (not process CPU
    time) is the right measure on the multicore engine, whose domains run
    concurrently. *)

val wall : unit -> float
(** Monotonic seconds since an arbitrary fixed origin; only differences
    are meaningful. *)

val measure_wall : (unit -> 'a) -> 'a * float
(** [measure_wall f] runs [f] once and returns its result with the elapsed
    seconds. *)

val measure_n_wall : ?warmup:int -> n:int -> (unit -> 'a) -> float
(** [measure_n_wall ~n f] runs [f] [warmup] times (default [1]) untimed,
    then [n] times timed, returning the {e average} seconds per run. *)

(* Monotonic nanosecond clock, in seconds. Wall-clock [Unix.gettimeofday]
   only resolves microseconds and can step. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

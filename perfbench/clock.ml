(* Monotonic nanosecond clock.  Reading it allocates nothing, so the
   traced run can stamp every callback without perturbing the allocation
   counters it reports next to the times. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

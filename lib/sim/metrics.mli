(** Trace-level metrics for the benchmark tables.

    Message-kind breakdowns and rate summaries computed from finished
    traces; protocol libraries provide the classifier (a function from
    their wire type to a short label). *)

val kind_counts :
  'm Trace.t -> classify:('m -> string) -> (string * int) list
(** Sent messages grouped by classifier label, descending by count. *)

val sends_by_source : 'm Trace.t -> (int * int) list
(** [(pid, messages sent)] for every pid that sent anything, ascending pid. *)

type delivery_report = {
  latencies : float list;
      (** Per-message µs between [Sent] and its [Delivered] (matched by
          engine sequence number), in delivery order. *)
  delivered : int;  (** Sends that were eventually delivered. *)
  held_at_end : int;
      (** Sends still sitting in a blocked link's queue when the trace
          ended — previously silently excluded from every metric. *)
  dropped : int;  (** Sends dropped by link policy. *)
  in_flight_at_end : int;
      (** Sends scheduled for delivery that the run's horizon cut off. *)
}

val delivery_report : 'm Trace.t -> delivery_report
(** Full delivery accounting: every [Sent] is attributed to exactly one of
    [delivered] / [dropped] / [held_at_end] / [in_flight_at_end]. *)

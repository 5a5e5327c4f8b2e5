(** Deterministic discrete-event simulation engine.

    Processes are event handlers over a protocol-specific message type ['m];
    the engine owns virtual time, the event queue, the network configuration
    and all randomness, so a run is a pure function of the seed, the wiring,
    and the adversary script.  The asynchronous adversary is expressed as
    scheduled reconfigurations ({!at}, {!set_link}, {!schedule_crash}) plus
    the delay distributions of {!Net}.

    Byzantine processes are ordinary behaviors registered with
    {!mark_byzantine}; nothing restricts their code — restrictions come only
    from capabilities (signing secrets, trusted-hardware handles, ACLs),
    exactly as in the paper's model. *)

type 'm t

type 'm ctx = {
  self : int;
  n : int;
  now : unit -> int64;
  send : int -> 'm -> unit;  (** Point-to-point send (recorded). *)
  broadcast : 'm -> unit;  (** Send to every process, including self. *)
  others : 'm -> unit;  (** Send to every process except self. *)
  set_timer : delay:int64 -> tag:int -> unit;
      (** One-shot timer; [on_timer] fires with [tag] after [delay]. *)
  output : Obs.t -> unit;  (** Record an observation in the trace. *)
  rng : Thc_util.Rng.t;  (** Per-process deterministic stream. *)
  spans : Thc_obsv.Span.t;
      (** Request-span recorder shared by every process of the engine
          ({!Thc_obsv.Span.nop} unless one was passed to {!create}).
          Protocol code stamps causal marks on it in virtual time; when
          disabled every call is one boolean test.  Recording never
          perturbs scheduling, RNG draws or the trace. *)
}
(** Capabilities handed to a behavior.  All interaction with the world goes
    through this record. *)

type 'm behavior = {
  init : 'm ctx -> unit;  (** Called once at virtual time 0. *)
  on_message : 'm ctx -> src:int -> 'm -> unit;
  on_timer : 'm ctx -> int -> unit;
}

val no_op : 'm behavior
(** Behavior that does nothing (a silent/crashed-from-start process). *)

type tracing =
  | Full
      (** Record every entry (sends, deliveries, holds, drops, timers,
          outputs, crashes) — the golden-trace/export fidelity mode, and
          the default. *)
  | Outputs_only
      (** Record only [Output] and [Crashed] entries — enough for the
          SMR monitors' commit and latency reductions
          ({!Thc_replication.Smr_spec}-style folds over outputs), at a
          fraction of the allocation.  The throughput-measurement mode. *)
  | Off  (** Record nothing; {!run}'s trace has an empty entry list. *)

val create :
  ?seed:int64 -> ?tracing:tracing -> ?recycle:bool ->
  ?spans:Thc_obsv.Span.t -> n:int -> net:Net.t -> unit -> 'm t
(** Fresh engine over [n] processes.  [net] must have the same [n].

    [tracing] (default [Full]) selects how much of the run is recorded;
    it changes {e only} what {!run}'s trace contains — scheduling, RNG
    consumption and behavior execution are bit-identical across modes.

    [spans] (default {!Thc_obsv.Span.nop}) is the request-span recorder
    handed to every behavior via [ctx.spans].  [tracing = Off] forces the
    nop recorder — the arena/recycling fast path keeps its pay-nothing
    promise — and span recording is itself virtual-time-only, so traces
    and exports are byte-identical whether or not spans are collected.

    [recycle] (default [true]) arena-recycles the engine's internal
    event records through a free list; [false] allocates every event
    fresh.  Observable behavior is identical — the flag exists so tests
    can prove it. *)

val net : 'm t -> Net.t

val stats : 'm t -> Thc_obsv.Link_stats.t
(** Live network instrumentation: sends/deliveries/drops, in-flight
    high-water mark, held-queue depths.  Updated as the engine routes;
    read it after {!run} for the whole-run totals. *)

val set_behavior : 'm t -> int -> 'm behavior -> unit
(** Install a process.  Pids without behaviors act as crashed from start. *)

val mark_byzantine : 'm t -> int -> unit
(** Tag a pid as faulty for the monitors; does not change its execution. *)

val on_corrupt : 'm t -> pid:int -> (string -> unit) -> unit
(** Register a corruption handler for [pid].  When an adversary script
    corrupts the process ({!corrupt}, or an [Adversary] [Corrupt] event),
    the handler receives the attack name and may switch the installed
    behavior into its Byzantine mode.  At most one handler per pid; a later
    registration replaces the earlier one. *)

val corrupt : 'm t -> pid:int -> attack:string -> unit
(** Mark [pid] Byzantine for the monitors and invoke its {!on_corrupt}
    handler (a no-op if none is registered).  Typically called from a
    scheduled script action, so corruption happens at a chosen virtual
    time mid-run. *)

val schedule_crash : 'm t -> pid:int -> at:int64 -> unit
(** Stop delivering messages/timers to [pid] from time [at] on. *)

val at : 'm t -> int64 -> (unit -> unit) -> unit
(** Run an adversary script action at the given virtual time (network
    reconfiguration, assertions over intermediate state, ...). *)

val set_link : 'm t -> src:int -> dst:int -> Net.policy -> unit
(** Reconfigure a link now.  Switching a [Block]ed link to [Deliver]
    releases its held messages with freshly sampled delays. *)

val heal_all : 'm t -> Delay.t -> unit
(** Set every link to [Deliver] and release everything held — used to
    restore the "every message is eventually delivered" obligation after a
    temporary partition. *)

val now : 'm t -> int64

val events_processed : 'm t -> int
(** Events the run loop has dispatched so far — the numerator of the
    events/sec throughput metric.  Counts every popped event (including
    deliveries to crashed processes), not trace entries. *)

val stop_reason : 'm t -> [ `Quiescent | `Horizon ]
(** Why {!run} returned: [`Quiescent] when the event queue ran dry (every
    process was idle and nothing was scheduled), [`Horizon] when the next
    event lay past [until].  Exceeding [max_events] raises instead.
    @raise Invalid_argument before {!run} has returned. *)

val run : ?max_events:int -> ?until:int64 -> 'm t -> 'm Trace.t
(** Process events in time order until quiescence, [until] (events after it
    stay unprocessed), or [max_events] (default 2_000_000; exceeding it
    raises [Failure] — a protocol bug, not a legitimate outcome).  Call at
    most once per engine: it enqueues the [init] events, so engines are
    single-shot. *)

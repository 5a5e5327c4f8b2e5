(** Scripted-fault adapters for the SRB implementations — the broadcast
    layer's entry points into the {!Thc_check} fault explorer.

    Each run builds the usual cluster, installs an {!Thc_sim.Adversary}
    script on top of it, runs past the script's horizon (so every temporary
    partition has healed and held messages have drained), and judges the
    full four-property SRB specification ({!Srb_spec.check}) on the trace.
    The designated sender is process 0. *)

type report = {
  violations : Srb_spec.violation list;
      (** SRB spec violations for sender 0's stream. *)
  delivered : int;
      (** Total deliveries of that stream summed over correct processes. *)
  messages : int;
  duration_us : int64;
}

val run_trinc :
  ?network:Thc_network.Model.t ->
  seed:int64 -> script:Thc_sim.Adversary.t -> ?n:int -> ?values:int -> unit -> report
(** {!Srb_from_trinc} (trusted-log SRB, any [f < n]): sender 0 broadcasts
    [values] (default 3) attested values early in the run; receivers chain
    and echo.  Default [n] = 4.  Crashes and partitions from the script are
    tolerated by construction — the expected verdict is a clean spec.
    [network] lowers a named topology onto the links
    ({!Thc_network.Model.install}, re-lowered after every scripted heal);
    rational client strategies do not apply (there are no clients). *)

val run_uni :
  ?network:Thc_network.Model.t ->
  seed:int64 -> script:Thc_sim.Adversary.t -> ?n:int -> ?faults:int -> ?values:int ->
  unit -> report
(** Algorithm 1 ({!Srb_from_uni}) over SWMR-register rounds, [n] = 5,
    [faults] = 2 by default.  Register operations bypass the message
    network, so only the script's crashes bite — which is itself a property
    worth sweeping: shared-memory rounds shrug off any partition script. *)

type stop = {
  reason : [ `Quiescent | `Horizon ];  (** {!Thc_sim.Engine.stop_reason}. *)
  events : int;  (** {!Thc_sim.Engine.events_processed}. *)
}
(** Why a run ended and what it cost the engine. *)

val run_uni_stop :
  ?network:Thc_network.Model.t ->
  seed:int64 -> script:Thc_sim.Adversary.t -> ?n:int -> ?faults:int -> ?values:int ->
  unit -> report * stop
(** {!run_uni}, also saying why the engine stopped.  Register rounds park
    idle readers, so a run ends [`Quiescent] once every process has
    delivered (or stalled) and the script's last event has fired; the
    [`Horizon] safety net is past the script's horizon. *)

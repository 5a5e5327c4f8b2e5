(** Generic write-then-scan round driver over a shared-memory board.

    The paper's §3.2 claim is deliberately broad: {e any} shared-memory
    object with a modify operation restricted to one process and a read
    operation open to all (under ACLs) supports the unidirectional round
    construction.  This module implements the construction once, against an
    abstract {!board}; {!Swmr_rounds}, {!Sticky_rounds} and {!Peats_rounds}
    instantiate it for the three object families named in the paper.

    Protocol per round [r] (identical to {!Swmr_rounds}'s docstring):
    publish [(r, m)] through the owner-restricted modify operation, then
    read all [targets] board locations in random order, one per
    [scan_delay]; entries found are receptions.  The write precedes every
    read of the same sweep, which is the entire unidirectionality
    argument.

    Park/wake rule.  When a sweep ends and the app [Hold]s, a sweep with
    no board change since it began would read exactly what it read, so
    the process does not poll: if some object on the board changed since
    the sweep began it starts a new sweep at once; otherwise it {e parks}
    with no timer armed.  The next change to any board object (through
    [publish] or written directly, e.g. by a Byzantine owner) wakes it
    with a zero-delay timer, and it runs a fresh sweep from its own timer
    handler.  A process therefore arms a timer only while a sweep is in
    progress, after advancing a round, or after a change — so runs whose
    apps all [Hold] or [Stop] end at engine quiescence. *)

type board = {
  publish : round:int -> payload:string -> unit;
      (** Owner-restricted modify operation (closes over the caller's
          identity capability; raises {!Thc_sharedmem.Acl.Violation} if the
          capability does not own the slot). *)
  read : int -> (int * int * string) list;
      (** Read location [j]: visible entries as [(owner, round, payload)]. *)
  targets : int;  (** Number of locations a sweep must read. *)
  watch : (unit -> unit) -> unit;
      (** Register a callback to run after every change to any object on
          the board, whoever makes it.  Each process registers one at its
          [init]. *)
}

val behavior :
  board:board ->
  ?scan_delay:Thc_sim.Delay.t ->
  Round_app.app ->
  'm Thc_sim.Engine.behavior
(** [scan_delay] is the simulated duration of one location read (default
    uniform 1–100 µs).  Same trace contract as {!Swmr_rounds.behavior}. *)

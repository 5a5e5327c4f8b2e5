(** Unidirectional rounds from sticky bits (write-once registers).

    Instantiates the write-then-scan construction ({!Scan_rounds}) over a
    board of sticky registers, one per (process, round): process [i] holds
    the write ACL on cell [(i, r)] and everyone reads.  Because a sticky
    cell accepts only its first write, even a Byzantine process cannot
    publish two different round-[r] values — sticky bits give
    non-equivocation {e within} the memory itself, on top of the
    unidirectionality the scan protocol provides. *)

type board
(** The shared grid of sticky cells. *)

val create_board : n:int -> board

val cell :
  board -> owner:int -> round:int -> string Thc_sharedmem.Sticky.t
(** Direct access for tests and Byzantine behaviors (the ACL still only
    lets [owner] write).  A [set] through it wakes parked readers like a
    published round message does. *)

val behavior :
  board:board ->
  ident:Thc_crypto.Keyring.secret ->
  ?scan_delay:Thc_sim.Delay.t ->
  Round_app.app ->
  'm Thc_sim.Engine.behavior
(** [scan_delay] as in {!Swmr_rounds.behavior}.  A holding process parks
    until some cell of [board] is set — by anyone, including through
    {!cell} — and re-sweeps then ({!Scan_rounds}' park/wake rule). *)

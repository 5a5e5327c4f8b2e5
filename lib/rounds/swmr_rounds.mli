(** Unidirectional rounds from SWMR registers (paper §3.2).

    The construction of Aguilera et al. (DISC 2019) that the paper uses to
    show shared memory implements unidirectionality:

    {v
    In round r, process p_i executes:
      to send message m, p_i appends (r, m) in object o_i
      p_i reads objects o_1 ... o_n
      p_i receives round-r message m' from p_j if it reads (r, m') in o_j
    v}

    The write happens {e before} the scan, so for any two correct processes
    that both write in round [r], whichever scans later must see the other's
    entry — the unidirectionality argument.  Scan steps take adversarially
    sampled time ([scan_delay]), so interleavings across processes are
    arbitrary; the property must (and does) hold for all of them.

    The driver delivers every register entry it discovers to the app (tagged
    with its round), deduplicated per distinct (owner, round, payload) — a
    Byzantine owner {e can} append two different payloads for one round, and
    honest readers then see both, which is how shared memory exposes
    equivocation. *)

val behavior :
  registers:(int * string) Thc_sharedmem.Swmr.log array ->
  ident:Thc_crypto.Keyring.secret ->
  ?scan_delay:Thc_sim.Delay.t ->
  Round_app.app ->
  'm Thc_sim.Engine.behavior
(** A process running rounds over the shared [registers] array (entry [i]
    owned by process [i]); [ident] must belong to the process the behavior
    is installed at.  [scan_delay] is the simulated duration of one register
    read (default uniform 1–100 µs).  While the app [Hold]s the process
    does not poll: it re-sweeps only after some register changed, and
    otherwise parks until the next write or append to any register of
    [registers] — including a Byzantine owner's direct append — wakes it
    ({!Scan_rounds}' park/wake rule).  The behavior sends no network
    messages, so it works under any engine message type. *)

(** Single-writer multi-reader atomic registers.

    The canonical shared-memory-with-ACL primitive of the paper (§2.1):
    every process may [read] every register; each register has a unique
    owner which is the only process allowed to [write].  Registers are
    linearizable by construction — the simulation engine executes handler
    code atomically, so each operation takes effect at one instant.

    The unidirectional-round protocol (paper §3.2) needs registers whose
    contents {e grow}: the owner "appends (r, m)".  [append] provides
    that pattern directly on a list-valued register.

    Registers can carry a trusted-op ledger ({!attach_ledger}): every
    [read]/[write]/[append] then charges one [swmr.*] ledger op, and an
    {!Acl.Violation} charges a [swmr.<op>_denied] rejection before
    re-raising — so protocols built on shared memory (uBFT-sim) report
    register-ops-per-request next to MinBFT's seal/verify counts, and
    [thc attack] shows blocked register forgeries instead of silence. *)

type 'a t
(** A register holding ['a], with an owner-only write ACL. *)

val create : owner:int -> init:'a -> 'a t

val owner : 'a t -> int

val attach_ledger : 'a t -> Thc_obsv.Ledger.t -> unit
(** Route this register's operation accounting to [ledger]: successful
    ops charge [swmr.read] / [swmr.write] / [swmr.append]; denied writes
    and appends charge [swmr.write_denied] / [swmr.append_denied] (which
    {!Thc_obsv.Ledger.rejections} counts) before the {!Acl.Violation}
    propagates.  Unattached registers (the default) charge nothing. *)

val attach_ledger_all : 'a t array -> Thc_obsv.Ledger.t -> unit
(** {!attach_ledger} over a whole {!array} / {!log_array}. *)

val on_change : 'a t -> (unit -> unit) -> unit
(** Register a watcher, called after every successful [write] or
    [append] (denied ones change nothing and call nothing).  Watchers run
    in registration order, inside the writer's step, whoever the writer is
    — a protocol's own [publish] or a Byzantine owner appending directly.
    Round drivers use this to park readers until a register changes
    ({!Thc_rounds.Scan_rounds}). *)

val read : 'a t -> 'a
(** Readable by everyone (no identity needed — reads are unrestricted in the
    paper's setting). *)

val write : 'a t -> ident:Thc_crypto.Keyring.secret -> 'a -> unit
(** Owner-only.  @raise Acl.Violation for any other caller. *)

val write_count : 'a t -> int
(** Number of successful writes (for linearization-order assertions). *)

type 'a log = 'a list t
(** A register used append-only, newest element first. *)

val create_log : owner:int -> 'a log

val append : 'a log -> ident:Thc_crypto.Keyring.secret -> 'a -> unit
(** Owner-only append: pushes [v] as the newest element in one register
    operation (one [swmr.append] ledger charge, one write-count tick).
    @raise Acl.Violation for any caller but the owner. *)

val entries : 'a log -> 'a list
(** Oldest first. *)

val array : n:int -> init:(int -> 'a) -> 'a t array
(** One register per process, [o.(i)] owned by [i] — the standard layout. *)

val log_array : n:int -> 'a log array

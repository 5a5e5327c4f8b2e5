(** One replicated cluster, whatever the protocol.

    Every driver that runs a protocol end to end — {!Harness} and the
    loadtest sweeps — needs the same things from it: a keyring over
    replicas and clients, the replica behaviors, a way to make an
    open-loop client, the request/reply envelope for custom clients, a
    message classifier, the trusted-op ledger, and the end-of-run view and
    durability readings.  {!make} builds them for any {!Protocol.t} and
    hides the protocol's message type behind {!packed}, so a caller
    unpacks once and then never matches on the protocol again.

    Pid layout: replicas at [0..n-1], clients at [n..n+clients-1]. *)

type 'm t = {
  n : int;  (** Replicas: [2f+1] for MinBFT and uBFT, [3f+1] for PBFT. *)
  keyring : Thc_crypto.Keyring.t;  (** Over replicas and clients. *)
  replicas : 'm Thc_sim.Engine.behavior array;  (** Indexed by pid. *)
  client :
    rid_base:int ->
    ident:Thc_crypto.Keyring.secret ->
    plan:(int64 * Kv_store.op) list ->
    'm Thc_sim.Engine.behavior;
      (** The protocol's open-loop client replaying a timed plan. *)
  wrap_request : Command.signed_request -> 'm;
  unwrap_reply : 'm -> Command.reply option;
      (** The client envelope, for clients built outside the protocol
          (e.g. closed loops). *)
  classify : 'm -> string;  (** Message kind, for per-kind counts. *)
  hw : Thc_obsv.Ledger.t;
      (** Trusted-op ledger: TrInc seals/verifies for MinBFT, [swmr.*]
          register operations for uBFT, empty for PBFT. *)
  final_view : unit -> int;  (** Highest view among the replicas. *)
  durability : unit -> Durability.stats;
      (** {!Durability.merge} over the replicas; {!Durability.zero} for
          PBFT. *)
}

type packed = Packed : 'm t -> packed

val make :
  Protocol.t ->
  f:int ->
  batch:int ->
  checkpoint_interval:int ->
  clients:int ->
  ?restart:int * int64 ->
  spans:Thc_obsv.Span.t ->
  Thc_util.Rng.t ->
  packed
(** [make protocol ~f ~batch ~checkpoint_interval ~clients ?restart
    ~spans rng] builds the cluster's replicas.  [batch] is clamped to
    at least 1.  [checkpoint_interval = 0] turns MinBFT's durability off
    and leaves uBFT at its default register-truncation cadence; a
    positive value sets both (PBFT ignores it).

    [rng] draws the keyring over [n + clients] pids first, then, for
    MinBFT, the TrInc world.  When [spans] is enabled every trusted-op
    ledger bump is attributed to the ambient span phase.

    [restart = (pid, at)] wipes MinBFT replica [pid] at [at] µs (see
    {!Minbft.replica}).  Raises [Invalid_argument] if [pid] is not a
    replica, if [at] is not positive, or if the protocol is PBFT or uBFT,
    which have no state transfer. *)

val engine :
  'm t ->
  seed:int64 ->
  tracing:Thc_sim.Engine.tracing ->
  spans:Thc_obsv.Span.t ->
  delay:Thc_sim.Delay.t ->
  clients:'m Thc_sim.Engine.behavior list ->
  'm Thc_sim.Engine.t
(** A fresh engine over the replicas and [clients] (pids [n], [n+1], …)
    on a uniform clique of [delay] links, ready to run. *)

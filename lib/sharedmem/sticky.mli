(** Sticky bits / write-once registers (Malkhi et al., "Objects shared by
    Byzantine processes").

    A sticky register accepts the first write and rejects every later one;
    its value, once set, is immutable — a direct non-equivocation object.
    The paper lists sticky bits among the shared-memory primitives that are
    "stronger than unidirectionality"; {!Thc_rounds.Sticky_rounds} builds
    unidirectional rounds from arrays of these. *)

type 'a t

val create : ?write_acl:Acl.t -> unit -> 'a t
(** By default any process may attempt the first write. *)

val set : 'a t -> ident:Thc_crypto.Keyring.secret -> 'a -> [ `Set | `Already ]
(** First-write-wins.  [`Already] if some value is already stuck (the write
    is ignored).  @raise Acl.Violation if the ACL denies the caller. *)

val on_change : 'a t -> (unit -> unit) -> unit
(** Register a watcher, called (in registration order, inside the
    writer's step) when a [set] returns [`Set] — the one change a sticky
    register ever undergoes. *)

val get : 'a t -> 'a option
(** Readable by everyone. *)

val is_set : 'a t -> bool

(** PEATS — policy-enforced augmented tuple spaces (Bessani et al.,
    "Sharing memory between Byzantine processes using policy-enforced tuple
    spaces").

    A tuple space holds tuples (arrays of string fields); processes insert
    ([out]), read ([rd]) and remove ([inp]) tuples by pattern matching.
    Unlike static ACLs, access is governed by a {e policy} that may inspect
    the current contents of the space — the paper highlights exactly this:
    "policies that can take into account the state of the object at the
    time of the attempted operation".

    The classification uses PEATS with the owner-field policy
    ({!owned_field_policy}): process [i] may only insert tuples whose first
    field is ["i"], everyone may read, nobody may remove — which yields the
    "object modifiable by one process, readable by all" setting of the
    paper's unidirectionality claim. *)

type tuple = string array

type pattern = string option array
(** [None] fields are wildcards. *)

type op_view =
  | Out of tuple
  | Rd of pattern
  | Inp of pattern
      (** The operation being attempted, for policy inspection. *)

type policy = pid:int -> op:op_view -> space:tuple list -> bool
(** Decides an attempted operation given the current space contents. *)

type t

val create : policy:policy -> t

val on_change : t -> (unit -> unit) -> unit
(** Register a watcher, called (in registration order, inside the
    caller's step) after every successful [out] and every [inp] that
    removes a tuple. *)

val matches : pattern -> tuple -> bool

val out : t -> ident:Thc_crypto.Keyring.secret -> tuple -> unit
(** Insert.  @raise Acl.Violation if the policy denies it. *)

val rd : t -> ident:Thc_crypto.Keyring.secret -> pattern -> tuple option
(** Non-destructive read of the oldest matching tuple.
    @raise Acl.Violation if denied. *)

val rd_all : t -> ident:Thc_crypto.Keyring.secret -> pattern -> tuple list
(** All matching tuples, oldest first.  @raise Acl.Violation if denied. *)

val inp : t -> ident:Thc_crypto.Keyring.secret -> pattern -> tuple option
(** Destructive read (remove) of the oldest match.
    @raise Acl.Violation if denied. *)

val size : t -> int

val owned_field_policy : policy
(** Everyone reads; process [i] may [out] only tuples with first field
    ["i"]; no removals.  PEATS as an "SWMR-like" object. *)

val append_once_policy : policy
(** Like {!owned_field_policy} but additionally rejects an [out] whose
    first two fields duplicate an existing tuple's — a state-dependent
    write-once rule (per owner and key), demonstrating policies that static
    ACLs cannot express. *)

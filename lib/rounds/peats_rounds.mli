(** Unidirectional rounds from a policy-enforced augmented tuple space.

    Instantiates the write-then-scan construction ({!Scan_rounds}) over one
    shared PEATS instance under {!Thc_sharedmem.Peats.owned_field_policy}:
    round messages are tuples [(owner, round, payload)]; the policy lets
    process [i] insert only tuples carrying its own id in the first field
    and lets everyone read — the ACL-object setting of the paper's §3.2
    claim, realized through a state-inspecting policy rather than a static
    list. *)

val behavior :
  space:Thc_sharedmem.Peats.t ->
  n:int ->
  ident:Thc_crypto.Keyring.secret ->
  ?scan_delay:Thc_sim.Delay.t ->
  Round_app.app ->
  'm Thc_sim.Engine.behavior
(** [space] should be created with {!Thc_sharedmem.Peats.owned_field_policy}
    (or any policy at least as permissive for reads and at most one owner
    per first field for writes).  [scan_delay] as in
    {!Swmr_rounds.behavior}.  A holding process parks until the next
    [out] or [inp] on [space] and re-sweeps then ({!Scan_rounds}'
    park/wake rule). *)

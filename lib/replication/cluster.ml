type 'm t = {
  n : int;
  keyring : Thc_crypto.Keyring.t;
  replicas : 'm Thc_sim.Engine.behavior array;
  client :
    rid_base:int ->
    ident:Thc_crypto.Keyring.secret ->
    plan:(int64 * Kv_store.op) list ->
    'm Thc_sim.Engine.behavior;
  wrap_request : Command.signed_request -> 'm;
  unwrap_reply : 'm -> Command.reply option;
  classify : 'm -> string;
  hw : Thc_obsv.Ledger.t;
  final_view : unit -> int;
  durability : unit -> Durability.stats;
}

type packed = Packed : 'm t -> packed

(* Every trusted-hardware bump lands on the ambient span phase, so the
   per-phase table attributes seals/verifies to prepare vs commit. *)
let observe hw spans =
  if Thc_obsv.Span.enabled spans then
    Thc_obsv.Ledger.set_observer hw (Thc_obsv.Span.attribute spans)

let max_view view_of states =
  Array.fold_left (fun acc st -> max acc (view_of st)) 0 states

let minbft ~f ~batch ~checkpoint_interval ~clients ~restart ~spans rng =
  let config =
    {
      (Minbft.default_config ~f) with
      batch_size = max 1 batch;
      checkpoint_interval = max 0 checkpoint_interval;
    }
  in
  let n = config.n in
  (match restart with
  | Some (pid, at) ->
    if pid < 0 || pid >= n then
      invalid_arg "Cluster: restart may only target a replica";
    if at <= 0L then invalid_arg "Cluster: restart time must be positive"
  | None -> ());
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + clients) in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let hw = Thc_hardware.Trinc.ledger world in
  observe hw spans;
  let states =
    Array.init n (fun self ->
        Minbft.create_replica ~config ~keyring ~world
          ~trinket:(Thc_hardware.Trinc.trinket world ~owner:self)
          ~self)
  in
  let restart_at pid =
    match restart with Some (p, at) when p = pid -> Some at | _ -> None
  in
  Packed
    {
      n;
      keyring;
      replicas =
        Array.mapi
          (fun pid st -> Minbft.replica ?restart_at:(restart_at pid) st)
          states;
      client = Minbft.client ~config ~keyring;
      wrap_request = Minbft.wrap_request;
      unwrap_reply = Minbft.unwrap_reply;
      classify = Minbft.classify_msg;
      hw;
      final_view = (fun () -> max_view Minbft.view_of states);
      durability =
        (fun () ->
          Durability.merge (Array.to_list (Array.map Minbft.durability states)));
    }

let pbft ~f ~batch ~clients rng =
  let config = { (Pbft.default_config ~f) with batch_size = max 1 batch } in
  let n = config.n in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + clients) in
  let states =
    Array.init n (fun self ->
        Pbft.create_replica ~config ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid:self)
          ~self)
  in
  Packed
    {
      n;
      keyring;
      replicas = Array.map Pbft.replica states;
      client = Pbft.client ~config ~keyring;
      wrap_request = Pbft.wrap_request;
      unwrap_reply = Pbft.unwrap_reply;
      classify = Pbft.classify_msg;
      (* PBFT spends no trusted ops; an empty ledger keeps its rates at 0. *)
      hw = Thc_obsv.Ledger.create ();
      final_view = (fun () -> max_view Pbft.view_of states);
      durability = (fun () -> Durability.zero);
    }

let ubft ~f ~batch ~checkpoint_interval ~clients ~spans rng =
  let default = Ubft.default_config ~f in
  let config =
    {
      default with
      batch_size = max 1 batch;
      (* uBFT always checkpoints (register memory must stay bounded); a
         positive interval overrides its default cadence. *)
      checkpoint_interval =
        (if checkpoint_interval > 0 then checkpoint_interval
         else default.checkpoint_interval);
    }
  in
  let n = config.n in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + clients) in
  (* uBFT's trusted hardware is the shared memory itself: one ledger
     attached to every register counts reads/writes/appends (and denied
     forgeries) the way the trinket ledger counts seals/verifies. *)
  let registers : Ubft.registers = Thc_sharedmem.Swmr.log_array ~n in
  let hw = Thc_obsv.Ledger.create () in
  Thc_sharedmem.Swmr.attach_ledger_all registers hw;
  observe hw spans;
  let states =
    Array.init n (fun self ->
        Ubft.create_replica ~config ~keyring ~registers
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid:self)
          ~self)
  in
  Packed
    {
      n;
      keyring;
      replicas = Array.map Ubft.replica states;
      client = Ubft.client ~config ~keyring;
      wrap_request = Ubft.wrap_request;
      unwrap_reply = Ubft.unwrap_reply;
      classify = Ubft.classify_msg;
      hw;
      final_view = (fun () -> max_view Ubft.view_of states);
      durability =
        (fun () ->
          Durability.merge (Array.to_list (Array.map Ubft.durability states)));
    }

let make protocol ~f ~batch ~checkpoint_interval ~clients ?restart ~spans rng =
  match (protocol : Protocol.t) with
  | Minbft -> minbft ~f ~batch ~checkpoint_interval ~clients ~restart ~spans rng
  | (Pbft | Ubft) when Option.is_some restart ->
    invalid_arg "Cluster: restart is only wired for minbft"
  | Pbft -> pbft ~f ~batch ~clients rng
  | Ubft -> ubft ~f ~batch ~checkpoint_interval ~clients ~spans rng

let engine c ~seed ~tracing ~spans ~delay ~clients =
  let n = c.n + List.length clients in
  let net = Thc_sim.Net.create ~n ~default:delay in
  let engine = Thc_sim.Engine.create ~seed ~tracing ~spans ~n ~net () in
  Array.iteri (Thc_sim.Engine.set_behavior engine) c.replicas;
  List.iteri
    (fun i b -> Thc_sim.Engine.set_behavior engine (c.n + i) b)
    clients;
  engine

let behavior ~space ~n ~ident ?scan_delay app =
  let self = Thc_crypto.Keyring.pid_of_secret ident in
  let board =
    {
      Scan_rounds.publish =
        (fun ~round ~payload ->
          Thc_sharedmem.Peats.out space ~ident
            [| string_of_int self; string_of_int round; payload |]);
      read =
        (fun j ->
          let pattern = [| Some (string_of_int j); None; None |] in
          List.filter_map
            (fun tuple ->
              match tuple with
              | [| owner; round; payload |] ->
                Some (int_of_string owner, int_of_string round, payload)
              | _ -> None)
            (Thc_sharedmem.Peats.rd_all space ~ident pattern));
      targets = n;
      watch = Thc_sharedmem.Peats.on_change space;
    }
  in
  Scan_rounds.behavior ~board ?scan_delay app

type t = {
  trusted_binaries : string list;
  trusted_sockets : string list;
}

let default =
  { trusted_binaries = [ "/lib/libc.so"; "/lib/ld-linux.so" ];
    trusted_sockets = [] }

let nothing = { trusted_binaries = []; trusted_sockets = [] }

let is_trusted t = function
  | Taint.Source.Binary b -> List.mem b t.trusted_binaries
  | Taint.Source.Socket s -> List.mem s t.trusted_sockets
  | Taint.Source.User_input | Taint.Source.File _ | Taint.Source.Hardware ->
    false

let untrusted_binaries t tag =
  List.filter
    (fun b -> not (List.mem b t.trusted_binaries))
    (Taint.Tagset.binaries tag)

let classify t tag = Taint.Origin.classify ~trusted:(is_trusted t) tag

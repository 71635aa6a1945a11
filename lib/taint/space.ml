type t = Tagset.space

let create () = Tagset.make_space ()

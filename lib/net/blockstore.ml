module Key = D2_keyspace.Key
module Vmap = D2_sync.Vmap

type t = Vmap.t

let mem_store () = Vmap.create ()
let disk st = Vmap.create ~disk:st ()
let get = Vmap.get

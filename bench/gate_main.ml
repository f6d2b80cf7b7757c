let () = exit (Gate.main Sys.argv)

module mmt/benchmark

go 1.24

require mmt v0.0.0

replace mmt => ../

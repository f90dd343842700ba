module gbkmv/bench

go 1.24

require gbkmv v0.0.0

replace gbkmv => ../
